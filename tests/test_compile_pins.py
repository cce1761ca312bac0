"""The compiler's output bytes and the ISA's dependence facts, pinned
across commits.

Every object module the frontends produce for the benchsuite (all 22
programs, compile-each and compile-all), the standard library and the
128-module scale chain is recorded as the SHA-256 of ``dump_object``.
Objects are the input to every link, so a change that claims to keep
the compiler's output must leave this table unchanged; a failure names
the compiled module before any executable pin in
``test_om_exe_pins.py`` does.

The same file pins, for every op of the catalogue, the registers
``Instruction.uses()``/``defs()`` report and the op's result latency
and issue pipe: the facts both list schedulers and the timing model
read.  Three operand shapes cover them: distinct non-ZERO registers, an
operate literal in place of ``rb``, and every register field ZERO.

A change to the compiler's output on purpose regenerates the tables
and says so in CHANGES.md::

    PYTHONPATH=src python tests/test_compile_pins.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.benchsuite.suite import (
    DECAF_PROGRAMS,
    PROGRAMS,
    program_sources,
    stdlib_sources,
)
from repro.frontend import compile_sources
from repro.fuzz.generate import generate_scale_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPS
from repro.isa.timing import issue_class, result_latency
from repro.minicc.driver import Options
from repro.objfile.serialize import dump_object

MODES = ("each", "all")
CHAIN_SEED = 11
CHAIN_MODULES = 128

#: Operand shapes for the dependence table: ``(ra, rb, rc, lit)``.
SHAPES = {
    "regs": (1, 2, 3, None),
    "lit": (1, 2, 3, 7),
    "zero": (31, 31, 31, None),
}


PINS = {
    ('alvinn', 'all', 'all.o'): '63210f0efd07fe01cd5436a0b3419065ac08234c9099269e3a630f085bd8140e',
    ('alvinn', 'each', 'alvinn/data.o'): '485f5c69ca7e23386d3ede8eb81b5dba2c7168a08755fe76bb282fb54f8068bd',
    ('alvinn', 'each', 'alvinn/main.o'): 'f68948f683c5008937975e8484d9714248cdaae8b11da9ee3efa77fd3f832009',
    ('alvinn', 'each', 'alvinn/net.o'): 'ea57023d3e3afab66e3ce6488ba2d7aa786e31e30806d53a064fba746a34e288',
    ('chain128', 'each', 's0.o'): 'd900b2fc44f916a535f0fe766f8a1348d287b0e97c029d34ceba920f6d1426ea',
    ('chain128', 'each', 's1.o'): '7196b78d20b040ebed2a5ee40ceec7c71d32c10b0927b74302e1b28c3f6fac5b',
    ('chain128', 'each', 's10.o'): '0b9ff7284695958e814e46cf52c27cbf0a7dbbcf7c4dced66d0649ef3c61d579',
    ('chain128', 'each', 's100.o'): 'ffcab1a9e0cdab4d9c1413f79d93d5b2b4c6c1ce94f6dc4616e33200a4e4bfde',
    ('chain128', 'each', 's101.o'): '887a6fcb6c180b5cc72b08be11412ae07c67b99860814771a9a5c015506dc043',
    ('chain128', 'each', 's102.o'): '8d603d2da67ac20dbf955250285edb03a4b4d34f1972d55f1f5df095139909cc',
    ('chain128', 'each', 's103.o'): '25c8b49f99913931411aa891b3ef58d2a1ef712d1847887bea6b7663dff0cb30',
    ('chain128', 'each', 's104.o'): '44af618d38df7c22e4e3bfdf270b82782d4037e7dc094951b1b997b1fd576e4e',
    ('chain128', 'each', 's105.o'): '6162bb2d69dd16a184bf5ea591204f98d904421abcde6455cd24450fb8e2b813',
    ('chain128', 'each', 's106.o'): '8e8b52b0967d95cde1a9fdfce6e9a30d1a98834bfc3039240acdf01ae0690c21',
    ('chain128', 'each', 's107.o'): 'a71ea5a928abf171e1aa2625079a34d1843d70bcbe157629ac1d51908395a374',
    ('chain128', 'each', 's108.o'): '3c8c044de53e2b79c4e0c390610462f2273901c0442bf4bd7181a8e2c108d8e5',
    ('chain128', 'each', 's109.o'): '43853a1c05dcf1b88ee9ef80c3cd68927f284cae1c3c325f0fc56917146d31c5',
    ('chain128', 'each', 's11.o'): '2083098bed1043e9fbf5f3e3811d46606313741656fee2ca7d8cfbaf5c93b7d8',
    ('chain128', 'each', 's110.o'): '88b8d4ea1799d525d1456a595ff58b21efb44d54fda79692452ceed476cb1deb',
    ('chain128', 'each', 's111.o'): 'ab873342d17032e45f0b36e590255c653ba179c8a76c249dff5143af26617504',
    ('chain128', 'each', 's112.o'): '2b0225784b9f43bc209cfd6db53bb39e854d4728628b9fae97bd616a770532c0',
    ('chain128', 'each', 's113.o'): '9fab6aef853dccd2a6eee27c365073cfb7926c7b80a133603cf5db4ffb1849f6',
    ('chain128', 'each', 's114.o'): '5c3b710eb1514fc2df9bd1ca159061f501f33aee43f48199cfa1e254b9468040',
    ('chain128', 'each', 's115.o'): '4a4cf905def16db5727d3692ca3aefb9f6433d7bd4cd4ebfc02326d30b0b558a',
    ('chain128', 'each', 's116.o'): '7abae6c3be70fe69ccc07613b698860868a07822fc7d58726e44fa8f3312536f',
    ('chain128', 'each', 's117.o'): '5691c63f3ee2e2c4571baee94274dee43741706d441f9fc36335196bf533109d',
    ('chain128', 'each', 's118.o'): '150caf50d3d2283808281f69c02af14a8ec32dab8f3df0f5b446232e4f6bf050',
    ('chain128', 'each', 's119.o'): 'bf5e302f54ff2d0faa6f93b36ded5f2cf2509b680666aa21c41a2c3a59f0d7f6',
    ('chain128', 'each', 's12.o'): '9bf0cfc67a13ffa67b080fa477ea2f947991adbaabf5a0d75c6ca3819e6c17f4',
    ('chain128', 'each', 's120.o'): 'e51835544e0452402b7b4d09a5c07c29dd57198b71be5d6aecac011188c0fdf5',
    ('chain128', 'each', 's121.o'): 'd4a48cec4d9318858e143f34c655252835566a02b0963c017007a70f945961d5',
    ('chain128', 'each', 's122.o'): '81af8f2d5ae40ceca2721d0cb2f3a9781c80813202e55fa8b49fed5943992cae',
    ('chain128', 'each', 's123.o'): 'd1ef771e32715758543310d8bbc93f99c6059d73e7d324b23bc4b89ab54b5401',
    ('chain128', 'each', 's124.o'): '124c127b2900904a4d1cc9b28f499c1ea6d68eaee44ae198aee872a6e941835b',
    ('chain128', 'each', 's125.o'): '7fbf1f194136c961e943e0f7b3d87e286c99ba61399dd263dd6c0c6d8415609c',
    ('chain128', 'each', 's126.o'): '14c462011118d0621f121a89889c95a3220e26d5f5ca07e97db6864cb07dc7a2',
    ('chain128', 'each', 's127.o'): 'fdb8f0833d40042a238da4a841269fc54650b1aa80558eb13f517bb91c0e1f77',
    ('chain128', 'each', 's13.o'): 'e2239fdad8bb40ba79baef09bdbfde4b52a3f940d2ec707c0cd077daccc52275',
    ('chain128', 'each', 's14.o'): '85462c1e8fb0b7e44c8a63ad99fd357ef9613c730990c3bd0227d19003f5493a',
    ('chain128', 'each', 's15.o'): 'e93abf8fb40a07bfa58a2bd6fd95d1a2184452e101ec4b94fd2114ad9ac57481',
    ('chain128', 'each', 's16.o'): '36487a45db528ffee32bf33a40521e8d76f15b7985fd820aa593736f5da81d0d',
    ('chain128', 'each', 's17.o'): '9ebe8133655192df9cc67b15444473b6c2f7696218e3ff4e32c031e6dd07d875',
    ('chain128', 'each', 's18.o'): '2be28ac43df64ada8e0799ff62ec07281b9227768499ceb508c148af77d0a235',
    ('chain128', 'each', 's19.o'): '2f5dc76eb2bb4e8972eb037033981d8fa539cc7c52230d1e6606e2f12059440d',
    ('chain128', 'each', 's2.o'): '12b67a78854c9ece66dde14076da9b942733fcce7d5b08cf8746d70019cc3af0',
    ('chain128', 'each', 's20.o'): 'e8c02a5763c7dcc4cc38f9dbb7ff4438f7678202556a963dc748ae1a0363ee08',
    ('chain128', 'each', 's21.o'): '5dbcdabb1f8fa454ea1497b1a882203b1ccd799f52f6336bfd5266454d71cdb8',
    ('chain128', 'each', 's22.o'): 'b52a70f830970250f962c345abb37200a642682f6bd57e90e818243d5d45e99c',
    ('chain128', 'each', 's23.o'): 'ef05503ad535169309cb4c52d03ec3ced7164d4ad23c262803a32991d4650fb9',
    ('chain128', 'each', 's24.o'): '8109f513277520151105bc4032dcab2b903621947df46f1889a065544cecab4a',
    ('chain128', 'each', 's25.o'): 'ffe2ceadd2ff7c2e43652b8dc88a758a163879b64d418c35bd57517704d45c96',
    ('chain128', 'each', 's26.o'): 'd8aa12b46e2fb6aa4868c005fcc7be54f88b77b594d499f5045c492a5407500c',
    ('chain128', 'each', 's27.o'): 'e4c1850ed6e7e6d597d99f693e2e6b906f0c759d1bdbf575728cc586c02147d1',
    ('chain128', 'each', 's28.o'): 'defc97a49234ba70fe8b79cd4becd3efa4f8ed5445e384b6fb4c1f1c8eb024b4',
    ('chain128', 'each', 's29.o'): '072f61363d8a81fc4c91f828be3064781894cf273cb8342405225c3a8922ed69',
    ('chain128', 'each', 's3.o'): 'd8de215dfc42f2ab8fc327d5a77dd4cfbbdf40d3fc0a29dca5a224997fac8166',
    ('chain128', 'each', 's30.o'): '5af3b788d68e6ee3ab037069b274003ccc97f451a77a616e455823626ff868ef',
    ('chain128', 'each', 's31.o'): '6e537601ee783e39a7f5e602023ae045f07a69280c0d7eab67f210dbd856df5c',
    ('chain128', 'each', 's32.o'): '5afa8b5a30ed7951964a2bc13e4d17dd9330cb5f697fae141273752000a3e7fe',
    ('chain128', 'each', 's33.o'): '608066b99db9853f2f31e7280baa9e22108e72ae92a3c4e1d8d2f5df174c78ac',
    ('chain128', 'each', 's34.o'): 'ecd3a13bb95714950983051605836ee100dc95184520149ad154e7a9bdcbd21a',
    ('chain128', 'each', 's35.o'): 'c6b58cf8e4656759e606acac5e29323eb8f69cc45996ca22fa1e230fd36acf94',
    ('chain128', 'each', 's36.o'): '4d069b15182ee28bf99086df2f4338e1de8a5bb14918311aa0d29c1a632dc643',
    ('chain128', 'each', 's37.o'): '2f3aa4a4a2936faac7a4dce8612d28e3ec952a1778024efa4236d9dd98ce0cc5',
    ('chain128', 'each', 's38.o'): '38f8852ab854ce1371d93523a6e7f9b157aad225b99ede03928e87f65fa73291',
    ('chain128', 'each', 's39.o'): '9c75507165da212b56c0741f496451352fb72de5bd8a8cceba14a812a890e40e',
    ('chain128', 'each', 's4.o'): 'b213ea18bdbb7913f8fefd0523486f1c02bbcc506fb179587020e3ccd458c9e7',
    ('chain128', 'each', 's40.o'): '2f0422097091867d1b00752f0d5ffb8adc354484f50b53f0d1601d5f973418fe',
    ('chain128', 'each', 's41.o'): '3720db29f4db891aa7625f36d4c53880d1078a6758cf34125b47dbcf8881af43',
    ('chain128', 'each', 's42.o'): 'aea043e3ba046b05201f35ffc425cef123eb2faa46630060f2f7317765d79da9',
    ('chain128', 'each', 's43.o'): '90aa8599cd01f8ce0b292757c7634d1fa2392d87e720c6e5e63cd794afe6f2b4',
    ('chain128', 'each', 's44.o'): 'c949fcdba857cecb648f7c91a0d097b5c5dd14abee0c27cb1819d4a2095f3360',
    ('chain128', 'each', 's45.o'): 'a3cff46043b67e066c2a0a8f932197efee57efe061e1ae9727f573f067579456',
    ('chain128', 'each', 's46.o'): 'e32827ebea6866e9f5000cab48081dde9906008fe0f39eac6e0367f2414d442d',
    ('chain128', 'each', 's47.o'): 'ece2b891eb0d107358789346abc1e2522e4f942a3a3afc4928eb2b66a502f9e1',
    ('chain128', 'each', 's48.o'): '3bef69c0bafec556726d4a7261918995f2d6560823c31d4085df69fba7369c2f',
    ('chain128', 'each', 's49.o'): '3b908985a4883946ba443edbbd90140ff33bbb6ffdd76ea41bd2dbce500961af',
    ('chain128', 'each', 's5.o'): 'd1948cd34431cd06e87f5cc28daa42b1568839deee1bd2bc6dded545636da80f',
    ('chain128', 'each', 's50.o'): '3e3c98237ce25a76801e77590f08ac969feb927918712accc08cb62eb8adf881',
    ('chain128', 'each', 's51.o'): '736f3971d4977303df78f9d5366230d926e05731c825c1262f0d6915b7b3abf5',
    ('chain128', 'each', 's52.o'): '305697dd20fa287580b89bac6e1abcc12312b10134363dc8a0f0d3db9f0d5b47',
    ('chain128', 'each', 's53.o'): '1dcfc40eb1fdb5a9a8a04a4e9268fff244cc6a5b1979452df0ae96f2ff427f49',
    ('chain128', 'each', 's54.o'): 'fb781987cd0bf41dcd1b29be48b146fdee68c9d2b05fa0648243ec6bef8088ed',
    ('chain128', 'each', 's55.o'): '05e9c42db17b73aa4c802a789c2d779ab6dfe63e46ada47f034c501a3f5de469',
    ('chain128', 'each', 's56.o'): '1c7af91cb22d83a2e9ab1d51ddfdcc7096ea13f812bb6fbb588d50ac655f6c59',
    ('chain128', 'each', 's57.o'): 'cbd5635842ca2b1a12c7db2c969548e4d2e9d0d98871e922ddd4d96e6952ea03',
    ('chain128', 'each', 's58.o'): '8e420b84a9bcca406f3a8e0398abf6cba93148bb99d2cf2aa3412d41d789cc8f',
    ('chain128', 'each', 's59.o'): '43bfedc3b512a63944885b9e0ab51e1ddb6de0114c6bbbfc935e249f922ced35',
    ('chain128', 'each', 's6.o'): '02ff292837023a4150e91e55a3147f5769a38c97bf6ab210aa9d1c311510d889',
    ('chain128', 'each', 's60.o'): '1cd39f3f7593fc2661154aec85548ebeebd660b22793b9ac9752fb6ef9024486',
    ('chain128', 'each', 's61.o'): '0d2c6df11c55b937d8d554b56cc3cc53006075d79dbaca73ac4fdbdd3ba2a8b7',
    ('chain128', 'each', 's62.o'): '106e656dd4545894d0096256a31cadf4299d201dcc007a05ad050f7bd4390f39',
    ('chain128', 'each', 's63.o'): 'a8c285b80cd1a36efeda2ed82d4316d6470f0927a811f85f100d87d8e17097d9',
    ('chain128', 'each', 's64.o'): '1124f741339779a09c734ef1a440e2fe3a99576c01634d42ed6d42c23dcf7367',
    ('chain128', 'each', 's65.o'): 'd4a90d3bc720dd1a047fc94bcd8331816d644727d5a02f3f51f7165b8e7af84f',
    ('chain128', 'each', 's66.o'): 'c2c33f60648ba2cbd99de6193343d3adb78cd324d6788aceaf01d28d701bd791',
    ('chain128', 'each', 's67.o'): 'd60a4dae3f983928f36a8637f214a0a2ccfbe2a28819386c248db30c8fa3ab0c',
    ('chain128', 'each', 's68.o'): 'a9e3a0e9be52de28faf103a120bc0ce9be035ae2f5a38c8c750d00170418500d',
    ('chain128', 'each', 's69.o'): '18fb0beb73c5aa7659d61b8784649f181d16296e42e7314e653f05d70b018b35',
    ('chain128', 'each', 's7.o'): 'be0258065b4ea2a764f7e3737e16549806ef1cae1592800a9eafc71ff180a7a5',
    ('chain128', 'each', 's70.o'): '4a4538f0d7839225051b4f166f578ef76d0a8eabe4add2ea1bc21851ecf40eca',
    ('chain128', 'each', 's71.o'): '24c6148d8890f84f51709efade5bcc7bcbe1ad4ed3e4dc3d29f5b83119b4b1dd',
    ('chain128', 'each', 's72.o'): 'd47cb42d238d86dc5ec43282777cbcebaa7d6d2af60589d7bae6a36424ae669b',
    ('chain128', 'each', 's73.o'): 'bdec42d7d4c5fb3091c8f1bdb5f1692d00ec2b70c86ad5d221dbef57e1ce4e76',
    ('chain128', 'each', 's74.o'): '192d3f56d034a0d297ed594a1f027b1c876096313b3915781a18ceee398209d9',
    ('chain128', 'each', 's75.o'): 'cecefde993e3c3fd06419939949e844f9139f515e9551010ec0b41b62be0d405',
    ('chain128', 'each', 's76.o'): '46300fc1bad44913a61d2c7d1db4e6dc03a6676a18661c00af575ecca64baed0',
    ('chain128', 'each', 's77.o'): 'aff3ccbac9caf77522f3380c50e38d4abcc4b471b84e2a013de1337cc9dbb12d',
    ('chain128', 'each', 's78.o'): '06714ad4641a8ea7d2db0502f42f7a080f3b9228eef68818dcd57be8452c8f43',
    ('chain128', 'each', 's79.o'): '81483f74eb6c9f427d44a3c826b27b6d5b1ce213f4596334b5ff155c926f8c41',
    ('chain128', 'each', 's8.o'): '0d87d2e04f4189e4494ba3e0e371f02f0d7adb54507119d2e30f92ff93c0a65a',
    ('chain128', 'each', 's80.o'): '003ea47257eb74351e2743cdc74b58e3ffeaa8d973624c7059a1ab72f5962515',
    ('chain128', 'each', 's81.o'): 'fe1e4547bd07637e2f8d068b2dbcbe06b6f04588b2c27ee6329585012b13c5e4',
    ('chain128', 'each', 's82.o'): '629b52c0c0aecf39e672365bdbdd08a4a09d5e71cd78dea0d768a74c77b565f1',
    ('chain128', 'each', 's83.o'): 'ed08fdf148cf90f74631fd3f580a7da6a587c79c7f6f1cae0d346ec93c6b5da0',
    ('chain128', 'each', 's84.o'): 'a7fa9f1e1bc78b004abc4185785df6eaa01c9e0ffe109df43126dd403ac10b06',
    ('chain128', 'each', 's85.o'): '1998e6de47510f57fad5c1a7e670f9a7a62bb0d7b321006607c599704738dae6',
    ('chain128', 'each', 's86.o'): '0c6ce723697aa89a30f1ee334fff484da1a61fd4510291b9d505c56714a4a520',
    ('chain128', 'each', 's87.o'): 'b9ac4f516481741978b9b8f215e8c93352f272be5e2ea406490bd4db35b9dcf5',
    ('chain128', 'each', 's88.o'): 'a3b036e3f381cc84fa94a8cd935de5dbc09e7d552ae7b138b52ac3cae18011f9',
    ('chain128', 'each', 's89.o'): '3fbcf3f6699a597bd1ef05efa6d8c450d3fd0cbfd8849377b8ebebf279dff3a1',
    ('chain128', 'each', 's9.o'): '4e74b3d787279098fcfc7672c0f06eb31e05c627425dea87ab21833c735a089f',
    ('chain128', 'each', 's90.o'): 'b4bf11f34fc16d6a1fa0f2f56e863e29af846f4847654a0bd99b08fa40310edb',
    ('chain128', 'each', 's91.o'): '167226c20b39c16ac0a8bd4cdb8b9de6a4184d0976142ee9b9e21cb739c54cd3',
    ('chain128', 'each', 's92.o'): '6952f1a0913aa66c37991e807e4316487aec298a9b57be7d17ddfc65940316b6',
    ('chain128', 'each', 's93.o'): '7bbd6b3a19754563c36be077a41248521f908e72ce1fccb4f5339dd6943333c5',
    ('chain128', 'each', 's94.o'): 'a2cdb18d6d619442d0302a0c0a76b1921954d362470c84d3cfe103a7d3b00bdb',
    ('chain128', 'each', 's95.o'): 'a703f9ba7929c70514e9cb0c8eeb4d4160d4e191d52547547c8b12343dd98460',
    ('chain128', 'each', 's96.o'): '1c4045f52286e95c44de062ae7d2f8f83f6fd8f160a482c1f483cae8e43966f1',
    ('chain128', 'each', 's97.o'): '272b83050115dd64ab6a3eabab6bd43cc912b1630254bc5686563668cde5b5a2',
    ('chain128', 'each', 's98.o'): '3bf16f1887cb5773e9304897bf9f610a3ec2408df3c8a6a4354a0e274ec6a84e',
    ('chain128', 'each', 's99.o'): '955cdcad6f3355dd4a5dd16074fc3c7cc951a1d3e6f74f6a9a6d4e5763478531',
    ('compress', 'all', 'all.o'): '6d6435484f4304daa3194f41d4d7584309fa2d1eafc30de10d7b92d92a72181b',
    ('compress', 'each', 'compress/lzw.o'): 'cc53aea0a2e88ec8b0e08591647f23b6b76b06e695fa1c967c361a662efb58b2',
    ('compress', 'each', 'compress/main.o'): 'a9dd84379c476d65a07acd0aa693030c0be2458fcc95d34893a9cae3c9315b8c',
    ('dlist', 'all', 'all.o'): 'db0fbdeb407bcb58181c1424c4d061158f2d204405fc7f6fed633e340219da4e',
    ('dlist', 'each', 'dlist/main.o'): 'd226b04496cee6cfbaa54e30058eb69e3b191b88d7111c220f0e356da450166a',
    ('doduc', 'all', 'all.o'): 'dfa21e11b28c28d2502654304dc3a50db45668865c8a5f444624a5a3eb731b8d',
    ('doduc', 'each', 'doduc/main.o'): 'ed91965b8660c341362aaaa63a3ab33fd988d1edb2066341ba3becd37d103666',
    ('doduc', 'each', 'doduc/monte.o'): '168b5dc1228ec57f7bd4ffb5796cd0375704ac2073c7e25fb3eabed7a81e9175',
    ('ear', 'all', 'all.o'): '6f57678459cfca9d3eb9d6b02027dff31be67289cc9fd5d70835d1f4aa7e01d3',
    ('ear', 'each', 'ear/filter.o'): 'cd3e16729474bd3c2e7e66e0772bea636b77273c1a858df64c89948bb224f007',
    ('ear', 'each', 'ear/main.o'): '5b5f8b39bf6295848739f1756803c56184a12c1a11145ba55dbdc5aa8cad0d2c',
    ('ear', 'each', 'ear/signal.o'): 'f4c91f9f4bd40fdfebd497380f7ce782532d05a6e32a1e0d822724e577d1b9fe',
    ('eqntott', 'all', 'all.o'): 'e6c933f4ddb6a77fce519f8f3d851a3fda1eb76ca0cefd468f2941e2bf8ade96',
    ('eqntott', 'each', 'eqntott/main.o'): '73def70030e5c51f7c4d8523d3d348522f54841cf458d06b7a4f145dff163766',
    ('eqntott', 'each', 'eqntott/tt.o'): '5ae118556a78efb4aadd4fdd3fc2f4990addaf57981f4b80f1694d774d93879c',
    ('espresso', 'all', 'all.o'): 'a144df49e432cdd8d2a187c01040b3c0ad38fb3f428e9c19713d5bf994f41993',
    ('espresso', 'each', 'espresso/cover.o'): '957ed3cbc562d45b1379c67cff5b872153f0584393bfb4a70fee1547325f1633',
    ('espresso', 'each', 'espresso/main.o'): 'b6d260bf9f8015d4c99e24312f469ea04d2a02d807c363ec21342a2898ba403f',
    ('fpppp', 'all', 'all.o'): '7c03cb4a1761b0c31830f8312b061d2bc2ff2ff4b62563eebce4dcd4fe6b9855',
    ('fpppp', 'each', 'fpppp/main.o'): '52ede18925ef3f091d6a3008c5ed71735a6891bd0adc4077a83c89a9c6f9ce98',
    ('fpppp', 'each', 'fpppp/twoel.o'): 'ea00f9656e2deea8742040827055a8a7b529e7c8107b40d7b6e288b0f3a84be2',
    ('hydro2d', 'all', 'all.o'): '5be36626d2b8b219200a3b4986cd29fa131383fb4d89328f5cdee37ef81ce20e',
    ('hydro2d', 'each', 'hydro2d/grid.o'): 'df64ed992d17571ab02fa09044566250314f71a08ce0874bf0f74f45cc807870',
    ('hydro2d', 'each', 'hydro2d/main.o'): '8d5b4c0751a6c51366375d151c85f3cdabe25732c2772caa51d52dceec093579',
    ('li', 'all', 'all.o'): 'e326122d67982a66795b99398a99815e88cbaf1176396aab9422ac887791c809',
    ('li', 'each', 'li/eval.o'): 'cc25dd5dadee92f46d9f1f31825d8ec1fbb6b8984f481a94dab4eda0b11c0c83',
    ('li', 'each', 'li/main.o'): '2f3d622c27e7d276bc293a9251b28121e2fc0432472bb1b5bbb563fd4840ff10',
    ('mdljdp2', 'all', 'all.o'): 'cc660b250167b12d5c8c757d713a74486680f867dcfb7eba21851ca373b6d1ef',
    ('mdljdp2', 'each', 'mdljdp2/forces.o'): 'f4c97295f339043f094cb16d47ad69640092c1ef1a323452e6ef5d485ea20539',
    ('mdljdp2', 'each', 'mdljdp2/main.o'): '4c3709f33e44793d11880dfd5628fbf212d51bd99d14491b11944ab86de14efd',
    ('mdljsp2', 'all', 'all.o'): '61a8386eba3c4fc8a38253cd5ad221b34eb6bdd1b47538eb13f652fd4835987a',
    ('mdljsp2', 'each', 'mdljsp2/main.o'): '97adf41d50dc2854796378c01eb3143f3f78e19618a6d623361ec5bdb518b2db',
    ('mdljsp2', 'each', 'mdljsp2/sp.o'): 'be762b1df19a7f07bf26ccbe6817347c7c29a0bd06c7dcb2f818b6d2fab015b7',
    ('mixcall', 'all', 'all-decaf.o'): '7e3b2d013a4ae8b9a39997a5e10cddc8967320798b0d94b75ab425df70157619',
    ('mixcall', 'all', 'all-minic.o'): '674b261da225db67d89fd7e8bb643aafccd120a7f2d34a8c3ac0644dfef285b5',
    ('mixcall', 'each', 'mixcall/kernels.o'): '8c8dd5ab0a9d7ca6bd2ef6b35c139237522b110d7983abe72540f60b3f93e260',
    ('mixcall', 'each', 'mixcall/main.o'): 'a5f5511ff22a0789be60df3216e26482d3f602902f818abc820cf0ad20cd4f76',
    ('nasa7', 'all', 'all.o'): '870b56a02f030a9f489da1e404bfcf68414c02ca951592b19349117b8719b51f',
    ('nasa7', 'each', 'nasa7/btrix.o'): '99ab78bc56ef06b8ecd99db60c77542fc8af1de3f85870f26aa5ac34ed321d44',
    ('nasa7', 'each', 'nasa7/chol.o'): 'db052c4d6b4ae46be1ec6675cdb6d3dc959392ff4f9f6a591d642b5c7225537d',
    ('nasa7', 'each', 'nasa7/common.o'): '5bd8c6ad38608094fa716b92ce5dd4bc677b8830b2e0e63a23e033b00b590dda',
    ('nasa7', 'each', 'nasa7/emit.o'): '82f8a73061430abebfaee045b539bb27ca2ba79879020a08792442fa2caad1f9',
    ('nasa7', 'each', 'nasa7/fft.o'): 'edbf54931b879ecbee82ad5bb95f803b3c11e939e98b0d3d5eb9492523aba185',
    ('nasa7', 'each', 'nasa7/gmtry.o'): 'bef77914cb710eec66fa36d2694236efbb378dc68a1e1ed14fe71c54e8208b6a',
    ('nasa7', 'each', 'nasa7/main.o'): '70f5ce09474e95907d37a2376255131b0a5a5270773d4517e7229ff27ef231e2',
    ('nasa7', 'each', 'nasa7/mxm.o'): 'e3324d0946bd303f228bd78e585d6b41bc55f98e1316a94a03dd91a8354ab5c2',
    ('nasa7', 'each', 'nasa7/vpenta.o'): 'd9d7f3fe66ba655bd9c8ed9878c0d49c08df115ca20a215acf548860e0ee789a',
    ('ora', 'all', 'all.o'): '6266bc7f9d4a1d827d384c0c1a000c5d05d5f78768079bd049472a6da8892b02',
    ('ora', 'each', 'ora/main.o'): 'f60adc786b0aae6f97643d610e09a933f6e7c7d539ef50f90f8893b6854a0b3b',
    ('ora', 'each', 'ora/trace.o'): 'e8437be356624d9b3419187358da11dab0cedf9fb4fe1f09e6c047582b5bd61a',
    ('sc', 'all', 'all.o'): '7cda48228877f7e1b0669433cc058165a5cc277e5d0aa8ddbb70a00141f468fb',
    ('sc', 'each', 'sc/main.o'): '61fed23e9af9e26548af77e6646b6cb5414713dc662475efc1e48a3bf8b5e846',
    ('sc', 'each', 'sc/sheet.o'): 'e2b2eb214561fcd24b6dfb524fcbc8739071d6ff92a65c7793868bf42c8ec940',
    ('shapes', 'all', 'all.o'): 'cd18818e057d7a60b912805095eb16e0c4c31a6787909d2bbcf2b92b9f6a390d',
    ('shapes', 'each', 'shapes/main.o'): '32f5f3c40e38d2e66f79771980b97ad53202c4a2b8781ce440f88b0de3a23eab',
    ('spice', 'all', 'all.o'): 'a902a49159c0cef955cb866fd3427ba19ee936e33ad8b1e59fd47f4eb4ed85a9',
    ('spice', 'each', 'spice/main.o'): '738a0a0f425a55f42a295417cc5dcdb4c2a93909c210b926b89514318772e2e7',
    ('spice', 'each', 'spice/solver.o'): 'f6f5ef4cd17377528ac2d846653c8ee66fbff0800237434d2c1bb823024823a6',
    ('stdlib', 'each', 'alloc.o'): 'e32c0d3fce8f2dc594bfd182fa52e0704820b38c5eb214b462d6bfe630bf391e',
    ('stdlib', 'each', 'bits.o'): '47b26e2a0baf1b8b17e1c0494b4589620d3a59d0d50a335622aa43aa48568de3',
    ('stdlib', 'each', 'fixed.o'): 'e3a52c04773f3cd7d44f251db4bc9df4680581a7d2c4010d9e5f76816baf1a3e',
    ('stdlib', 'each', 'hash.o'): '5f5636653af2d3dc640f5ec4d03deed52660394f8dbf112603b81bb92c96e21a',
    ('stdlib', 'each', 'io.o'): 'e01f03d66672cafb1f8bd38da64fef45a8f32b91de72cf7aca6636d737cec7a7',
    ('stdlib', 'each', 'list.o'): 'e6ca5b8deb14ae7432e83542724cb69dff9c3638f8cc3c5da1c865a1341cb6f7',
    ('stdlib', 'each', 'math.o'): '06713920a1e9961a6d96cad5b5dd94509d23721fe08bbb22c79333f8f4cd9df3',
    ('stdlib', 'each', 'matrix.o'): 'd94d3836fedc9423e4ac26794d1367d5b6d3f8f1604ccad7a053690f7b478e25',
    ('stdlib', 'each', 'mem.o'): '2f2135df114b1fc534e2f75d11bc600d4ee1643cfcb88f6f2351ac710e05e540',
    ('stdlib', 'each', 'rand.o'): 'aa53e443cb616bf83ea1b7dc7bcdd845f0f5b585ca52ce25245b4f2897921a6c',
    ('stdlib', 'each', 'ring.o'): 'ec6c083e2d1d22e561ae5e66e6d61540f956755dd99603a5fa5875d21929f0c5',
    ('stdlib', 'each', 'runtime.o'): '4c812a8d0145f1df4b41cd46097e115919dac0a4f446906b12ed0c68b2653f3e',
    ('stdlib', 'each', 'search.o'): '36b880452fd09cde276de61a113a5fedc843efab8f16efb17fcc33da35d10335',
    ('stdlib', 'each', 'sort.o'): '2df3eb75458420954b85eb9f74b4b49d7b146865dbeca758e8cc8e14aa06589d',
    ('stdlib', 'each', 'stats.o'): '5c15b52a5e36de04abc94fac26cc10bca2ae1a43acc0450932d0ccc65752eb40',
    ('stdlib', 'each', 'vec.o'): '600c9a5986d581c304f2a65e9f35bdb4b26bb16f57a5136388d3a6f1fcdaffad',
    ('stdlib', 'each', 'wstr.o'): '63a2f110173d597a8c8af290548161eddcde4417c22775ce354df5560997ffb6',
    ('su2cor', 'all', 'all.o'): '4c3011576b39949c1787045fee6b0c79e3c284e1c5d51649dfef14aa811460f5',
    ('su2cor', 'each', 'su2cor/lattice.o'): '248f2a52ddb65cccd76731b0be66142b923d9979da05487501f20374a720e3f4',
    ('su2cor', 'each', 'su2cor/main.o'): 'e7b0497160811a6aaf4dc09c73e8fb6f5e2c285967468927aa610445daac6119',
    ('swm256', 'all', 'all.o'): 'b125bcbca80eb8a07d1c93cf492b4782f2423d70c8ca04afb20726ad7a8729ce',
    ('swm256', 'each', 'swm256/main.o'): 'cfa5236a82a7d415c0f4d6920f884453929c1a5115f609526083c246952cbbb5',
    ('swm256', 'each', 'swm256/sw.o'): '51b519b07e5f3fe32b9884b12752a33d9adfa84b2ac2a332d59e3e174820bff9',
    ('tomcatv', 'all', 'all.o'): '5292421b5593e6b5555b39820327fdace2532025ea0941f4a00f4f55038ce5f0',
    ('tomcatv', 'each', 'tomcatv/main.o'): 'a2453b04dce25186c6dfbd68d0d45321996e9f8cd77bc0835acca334d83252df',
    ('tomcatv', 'each', 'tomcatv/mesh.o'): '1912bab3a316704f9f83092b3dcf3d85eeb79c675db27a92963d697c02c57bf7',
    ('wave5', 'all', 'all.o'): '2c4d266fa796f2324e7d345cee6c8dc278f8c60159b74cde4d45152e0152c867',
    ('wave5', 'each', 'wave5/main.o'): '9505ec46987c674f2e6d81037206a4dec257fa9f9dba86059ae3607b32ed0cd9',
    ('wave5', 'each', 'wave5/pic.o'): '2f7711aa7658e13a9116a3515e869927456f5aa23139ebceae13284fb0bcb5d8',
}

#: Per op: ``(result_latency, issue_class, ((uses, defs) per shape))``
#: with the shapes in :data:`SHAPES` order.
DEPS = {
    'addl': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'addq': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'and': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'beq': (1, 'B', (((1,), ()), ((1,), ()), ((), ()))),
    'bge': (1, 'B', (((1,), ()), ((1,), ()), ((), ()))),
    'bgt': (1, 'B', (((1,), ()), ((1,), ()), ((), ()))),
    'bic': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'bis': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'blbc': (1, 'B', (((1,), ()), ((1,), ()), ((), ()))),
    'blbs': (1, 'B', (((1,), ()), ((1,), ()), ((), ()))),
    'ble': (1, 'B', (((1,), ()), ((1,), ()), ((), ()))),
    'blt': (1, 'B', (((1,), ()), ((1,), ()), ((), ()))),
    'bne': (1, 'B', (((1,), ()), ((1,), ()), ((), ()))),
    'br': (1, 'B', (((), (1,)), ((), (1,)), ((), ()))),
    'bsr': (1, 'B', (((), (1,)), ((), (1,)), ((), ()))),
    'call_pal': (1, 'B', (((16,), (0,)), ((16,), (0,)), ((16,), (0,)))),
    'cmoveq': (1, 'I', (((1, 2, 3), (3,)), ((1, 3), (3,)), ((), ()))),
    'cmovge': (1, 'I', (((1, 2, 3), (3,)), ((1, 3), (3,)), ((), ()))),
    'cmovgt': (1, 'I', (((1, 2, 3), (3,)), ((1, 3), (3,)), ((), ()))),
    'cmovle': (1, 'I', (((1, 2, 3), (3,)), ((1, 3), (3,)), ((), ()))),
    'cmovlt': (1, 'I', (((1, 2, 3), (3,)), ((1, 3), (3,)), ((), ()))),
    'cmovne': (1, 'I', (((1, 2, 3), (3,)), ((1, 3), (3,)), ((), ()))),
    'cmpeq': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'cmple': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'cmplt': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'cmpule': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'cmpult': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'eqv': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'jmp': (1, 'B', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'jsr': (1, 'B', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'jsr_coroutine': (1, 'B', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'lda': (1, 'M', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'ldah': (1, 'M', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'ldbu': (3, 'M', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'ldl': (3, 'M', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'ldq': (3, 'M', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'ldq_u': (3, 'M', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    'mull': (12, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'mulq': (12, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'ornot': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'ret': (1, 'B', (((2,), (1,)), ((2,), (1,)), ((), ()))),
    's4addq': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    's8addq': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'sll': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'sra': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'srl': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'stb': (1, 'M', (((2, 1), ()), ((2, 1), ()), ((), ()))),
    'stl': (1, 'M', (((2, 1), ()), ((2, 1), ()), ((), ()))),
    'stq': (1, 'M', (((2, 1), ()), ((2, 1), ()), ((), ()))),
    'subl': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'subq': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'umulh': (12, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
    'xor': (1, 'I', (((1, 2), (3,)), ((1,), (3,)), ((), ()))),
}


def compute_pins() -> dict:
    """Compile every pinned unit: ``{(unit, mode, object): digest}``."""
    options = Options()
    units: list[tuple[str, str, list[tuple[str, str]]]] = []
    for program in PROGRAMS + DECAF_PROGRAMS:
        sources = [
            (f"{program}/{name}", text) for name, text in program_sources(program)
        ]
        units += [(program, mode, sources) for mode in MODES]
    units.append(("stdlib", "each", stdlib_sources()))
    chain = generate_scale_program(CHAIN_SEED, CHAIN_MODULES)
    units.append((f"chain{CHAIN_MODULES}", "each", list(chain.modules)))

    digests: dict[tuple[str, str, str], str] = {}
    for unit, mode, sources in units:
        for obj in compile_sources(sources, mode, options):
            digests[(unit, mode, obj.name)] = hashlib.sha256(
                dump_object(obj)
            ).hexdigest()
    return digests


def compute_deps() -> dict:
    """The dependence facts of every op under every operand shape."""
    table = {}
    for name, op in sorted(OPS.items()):
        facts = []
        for ra, rb, rc, lit in SHAPES.values():
            instr = Instruction(op, ra=ra, rb=rb, rc=rc, lit=lit)
            facts.append((instr.uses(), instr.defs()))
        instr = Instruction(op, ra=1, rb=2, rc=3)
        table[name] = (result_latency(instr), issue_class(instr), tuple(facts))
    return table


def _format(name, table) -> str:
    rows = "\n".join(
        f"    {key!r}: {value!r}," for key, value in sorted(table.items())
    )
    return f"{name} = {{\n{rows}\n}}"


def _check(name, table, pins) -> None:
    if table != pins:
        changed = sorted(
            key for key in table.keys() | pins.keys()
            if table.get(key) != pins.get(key)
        )
        raise AssertionError(
            f"{len(changed)} pinned entr(y/ies) changed: {changed}\n"
            f"recomputed table:\n{_format(name, table)}"
        )


@pytest.fixture(scope="module")
def pins():
    return compute_pins()


def test_pins_cover_every_program_mode_and_module(pins):
    units = {(unit, mode) for unit, mode, _ in pins}
    assert len(units) == 2 * len(PROGRAMS + DECAF_PROGRAMS) + 2
    assert sum(unit == f"chain{CHAIN_MODULES}" for unit, _, _ in pins) == (
        CHAIN_MODULES
    )


def test_compiled_objects_match_their_pins(pins):
    _check("PINS", pins, PINS)


def test_dependence_facts_match_their_pins():
    _check("DEPS", compute_deps(), DEPS)


if __name__ == "__main__":
    print(_format("PINS", compute_pins()))
    print()
    print(_format("DEPS", compute_deps()))
