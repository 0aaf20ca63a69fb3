"""Pinned report hashes: verify, example, search and truncate reports stay byte-identical.

Each pinned command runs through ``weakcomm.cli.main`` in-process, once per
format, and the sha256 of its whole report is compared with the value
recorded when the pin was set. The truncate reports are pinned whole too:
each row's charpoly, ``spectrum`` and ``max_modulus`` follow from its exact
nilpotency degree. The sections at n = 160 and 320 pin that reach, and a
test holds them to under a second; the section at n = 640 is pinned too.

An injected fault inverts verdicts whose conclusion holds, so its first
failure carries no defect. The defect literals and residuals of the
expansion identities are pinned by a separate ``check_identity`` sweep in
which 80 of 280 evaluations fail and carry a defect. A second sweep pins
every identity but RAD_PROD and RAD_SUM at each point of its suite grid:
200 of its 590 evaluations fail, every flag-table identity among them, so
it pins each identity's witness and the order of its defects. A third pins
RAD_PROD and RAD_SUM, decided exactly, at the pairs of the first.
"""

import hashlib
import json
import time

import pytest

from weakcomm.cli import main
from weakcomm.identities import _IDENTITIES, IdentityId, check_identity
from weakcomm.instances import ExampleId, RelationClass, sample_pair, witness_predicates

VERIFY = "verify --dims 2,3,4 --samples 5 --seed 3"
SEARCH = "search --dim 4 --budget 400 --seed 5 --predicate "
SIZES = " --sizes 4,6,10"
# the largest pinned sections; their reach is held to under a second below
LARGE_TRUNCATE = "truncate EXNILP_T --sizes 160,320"

# command -> (exit status, sha256 of the JSON report, sha256 of the Markdown report)
PINS = {
    VERIFY: (
        0,
        "8ab1c9562cf0d0d2ba1d0dea7b42d778382b602870101660371676ec19a9c3c2",
        "62bda917e1bcc167ed1965d0b88dfb4844331bcb66702431b9965b6dd0f711d6",
    ),
    VERIFY + " --inject-fault NEWTON_R": (
        1,
        "cae4ad65e752eb84f1ac3ce2858f5c54040feb3190a00a41f37c9af716454bcb",
        "f841d1075aa22cbbefea02cefc85ada6b66f8adc4d5ed353611a0668a4e24a93",
    ),
    VERIFY + " --inject-fault TELESCOPE": (
        1,
        "e1b6d1c5936bdc281b6a46d0462fd5777a72905b1d26a016ef26d7a778f548f8",
        "b5dccbe8109e66821222dfff532fa4a428f51757c4c02d62b63933aac0d97681",
    ),
    # the faults of KRITERION_RANGE, and of R.i and R.ii, whose grids have
    # lam = 1 and mu = 1: each inverts every verdict whose hypothesis is met
    "verify --dims 2,3,4 --samples 20 --seed 7 --inject-fault KRITERION_RANGE": (
        1,
        "4af81f7cb96f6cfb3571386acf2cf6dd98aad1cafb9cf30146de8f200378b27b",
        "b6251e93d0158b72d6066524c8e22e71be26e2837e0b6ab7ba065d41d347690a",
    ),
    "verify --dims 2,3,4 --samples 20 --seed 7 --inject-fault R.i": (
        1,
        "da23a6cb9a917ec4918baaca1858858cf821fb298bf49e27b4800162f65a7942",
        "f89c3c8040e4fb271b057b7bda129647fe550e3a741499e17c96a4f3dd395ad9",
    ),
    "verify --dims 2,3,4 --samples 20 --seed 7 --inject-fault R.ii": (
        1,
        "dabf4fdc7ce4834e63a4943e9db9bcacfa8f11cd8c05f55db4eead092a5d5322",
        "e2c24f094bb68e90410f5f1f584e855e6c28330b7b24b9e360b722be9065b891",
    ),
    # dims 5 and 6, which the pins above do not sample: six of its seven
    # relation-flag sets occur at both dims, so verdicts built on a pair of
    # one dim are served to pairs of the other
    "verify --dims 5,6 --samples 4 --seed 11": (
        0,
        "75b1a25aa8cf2c6ab197e4e9098da5954bac4f0e66be7565b23d135356e53ebe",
        "727fbc4805873eb8d2f77091a5efee8824f5e9536af0b747819e64a27045fabf",
    ),
    "example SEX_I_PQ": (
        0,
        "357bd9ba06dab989462e0d4829afb25e9b92c91122f0eb35048240c740444b60",
        "72d4d9d0925b670a87de4ac92b3da3cf27dc31311fd1f53ece9d608574aaca41",
    ),
    "example SEX_I_PS": (
        0,
        "396c13afb889fa5fc575404a989ad082df7c708ba7ae87c05165a27d0e40c500",
        "d9d36c62609eb52b53639c79f2a287e40676710cd48d13222fffc1a598f9a709",
    ),
    "example SEX_II_TS": (
        0,
        "4f48365ca472b78d87bc48f9de07648cc798cd0cead6028558e522fe1734f42d",
        "6a30774962405ed85aa77a7289b51d9f9eff552dfa9520aadc882356605fae40",
    ),
    "example SEX_II_MN": (
        0,
        "410eabf54324720aee1ceefeef6368266983ea5f715ffc4dd2c149b14af8900e",
        "e21f06d7b3ad934011dd37bfa6ec15a0b6832e0c5ae3480ba9292d34bb6324cc",
    ),
    "example SEX_III_TN": (
        0,
        "93c0b4e80c34e65681ace4729f3ac615b7930795014aabcff791f36c1653ae5c",
        "77f588c77f9681b6a5a3edd6bf29e58ceaf770d3620f246be25b42b564ac6778",
    ),
    "example SEX_IV_N1N2": (
        0,
        "19b4ff60fa2c7f523e39b0b1aa84c1b07d1a1a1db3270d8fb22b4203fc3c710a",
        "6868cca80dc6c3aed369c80bb5db105ff6ebdf1b0a661ed1920637172f94a15e",
    ),
    "example SEX_V_PQ": (
        0,
        "42c4a709f08ed5905262cde853bfdf6e2052c3d855edae90beec5f627bac7dca",
        "c42bc17276f5d483743ea9f999f765a8813144e813386c7d7a9d9d7083ef91c0",
    ),
    "example REMARK_TN": (
        0,
        "94c7d5c83fc8ff598547549f778a38381a4b3aa50a033a9ed73bf37616017c1b",
        "92ba9e347136ff2e1a784b45f174e5c0b3295bb2b05d0d1decb9f3e032d15f33",
    ),
    "example EX4_RN": (
        0,
        "0bc97c6a15e2995f9d0e1a4e779c1b2242dbb43fc44cfb38527d30c549e7db1c",
        "c5f356882514c27fb8afdedf31573017ba72244b7bc7b0e9b7f94429da95fa99",
    ),
    "example EXNILP_T": (
        0,
        "966ecb90af830ccefd5160da57b84c0bd7b695fed4226611695b897c81a1c5b1",
        "2adcaab531f6fee8f90b3e9e1e6cfda419b66433b52d27f321c4703f1c6810d6",
    ),
    "example EXNILP_N": (
        0,
        "508eebb31f6268f2832e770a269cb5718edd84471770bc57bf98fb370ba31293",
        "a45b667c7f961793409674aefeeb370bca7c8f40c000680ffac2aec67061af6e",
    ),
    "example EXNILP_Q": (
        0,
        "37d052ab9181f599e37776a5e218684f37eca7602a3ae04e0566d1a33098356f",
        "5dd74818e0063eceb0bfada78e29ddca48edc286c071badced5d6ab4f1e00632",
    ),
    SEARCH + "comm_w_not_comm": (
        1,
        "0fa90957d6031c1a300eff0f0423b357be3c858a9f059a7e57c4c0c46413ffe3",
        "74736bdd7409d2e61df79d2cb75bcbe0af3d9e1c146d62b0849e36dc9ea6735c",
    ),
    SEARCH + "comm_l_not_comm_r": (
        0,
        "fb6d7210111e71e6d08ffa8b07be61e67cf11eebacd218fc3090f73bcae06f53",
        "47bf73ac7a155d1bfd2c63d7256ba66c6f8c9d5c07c0fac24f61e4b30d72792d",
    ),
    SEARCH + "comm_r_not_comm_l": (
        0,
        "7faeee83033aacb57c1aec39e96b5b6e32e88d732bddaf937d7e641d166161ee",
        "4c970e31582c254d472d3dd9ebda691df554c2fe233606fa42ec57fd76eb6988",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate comm_w_not_comm": (
        1,
        "58eb2f18ab680fc611ecf1821250e285e544c5232c8d6d654a53322bed81299e",
        "60a1c2eb8fd6e1071adc23246427405449194368c0359a7c15d218c14921249e",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate comm_l_not_comm_r": (
        0,
        "cd0f356757b0e5a226240e46e7f51028dadbfbe53bc71d60812838cdbc67d746",
        "26cbdb04ea56240baa255d74b21b79558dc7c71244fc87c7f8a5c5d89f49edce",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate comm_r_not_comm_l": (
        0,
        "d70f4efa344184eec29573e74352e9cf8858869d76ac4027a9ffe4874154dbf2",
        "3d7f1d45ae1e1740e3ba870284f8d09152cca2972c3f343298bb5bffffce4e38",
    ),
    "search --dim 3 --budget 400 --seed 5 --predicate comm_w_not_comm": (
        1,
        "cf23f5294521e6a43863e3e8afb6eebcf4276ac417181d1d0a411630c7b162e1",
        "86e111d4450356dffbdd5c33e04e5de79d13049f7263ac681f6cfd1673bed635",
    ),
    "search --dim 3 --budget 400 --seed 5 --predicate comm_l_not_comm_r": (
        0,
        "2ba97818513081d611dfbe9bc44efdb887e9c6f0b8ec99068aa800f030ab66be",
        "5def7640e05c599daa626fd0d0290706abe3cb3fd976ce65170c7c18571d79ea",
    ),
    "search --dim 3 --budget 400 --seed 5 --predicate comm_r_not_comm_l": (
        0,
        "da88412f301451f5c0392d6258ee525009d6ef740708aecef6a8a133b8c75eb3",
        "7ec25073616450bf9f01dd474f301e19df889c7ab79c02fea3448476f4853112",
    ),
    "search --dim 6 --budget 400 --seed 5 --predicate comm_w_not_comm": (
        1,
        "1b51eae678670eb4d82cbe7a6fe423ed5c376d6aa10300d3ed3a5e7e5906ca16",
        "429ac2c26f7ec32684190f4393c7efb420f34a44d63eb5257076de1d306e10cc",
    ),
    "search --dim 6 --budget 400 --seed 5 --predicate comm_l_not_comm_r": (
        1,
        "5bdfac22e3e3d1b385f7fefe41eee50f782d2f58dc95901169257be8d05ec549",
        "79dfc6bbe18a1fbed408ccec455f21a952aeb45be6605e782de5abd3dcc5c1dc",
    ),
    "search --dim 6 --budget 400 --seed 5 --predicate comm_r_not_comm_l": (
        1,
        "4d4a5e1f5292f867e6a78c386029ad27ec6ee9bb874f33c1c58932a1af0aa3a0",
        "2fd93db16a1bff2d97ebf2270e414748b7c990a49a080d75132d4a0ef9f10b76",
    ),
    # dim 8, the largest dim search takes: its probe images are the largest
    "search --dim 8 --budget 400 --seed 5 --predicate comm_w_not_comm": (
        1,
        "3e221ccc3f4a085bcd472f282a0439b99da2258ae1414b48411d7fb7e9ae8dd4",
        "9966f578f7dbbd99c2f36ede1ba4fd43353fc32a4a101c040ba7ebd112335e3b",
    ),
    "search --dim 8 --budget 400 --seed 5 --predicate comm_l_not_comm_r": (
        1,
        "6789fd68421bfbf9143aa7afaf4d080e963f125f37a9038ccff5e7c2a494be01",
        "80a9996ac11b0a201643711c25d099038a7f5b7b61a5c6c3a572395cd481b628",
    ),
    "search --dim 8 --budget 400 --seed 5 --predicate comm_r_not_comm_l": (
        1,
        "e9158ed669669b0f4c44970d71a67bd4d155eea3b3595c789c8e5ddc1580fe34",
        "cfd6aed3f356b3c6ed2cac9fd815f0bbe0d9aac43d4ab042d9554abcbb03672f",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate not_c1": (
        0,
        "09b998208d78aea4bada7e5f62f2779362d6c377ea203bf3fcc6a5388d89417b",
        "18721cb1c36b02d6473068136f2fb1aab77d4102c812b86a61a7b4ad4cb12a05",
    ),
    SEARCH + "not_c1": (
        0,
        "3fcbdecea2ba7c4c9ccea6ea206ffdc9e9d974d99ce7139f3e46799f26f9baaf",
        "401688132e1fde3f4d37de529b9daf6dcbf2009dbc7a0cfd4bce6d8b81c388f8",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate not_c2": (
        0,
        "c3f2e9d60b9bd940b610bb17f2b19c49939a392b08af5056d316815c12e3079b",
        "6c55eb80520fb2ce7bd1dbe6ac04575548fa9395d94d1c8191cba0a018958921",
    ),
    SEARCH + "not_c2": (
        0,
        "59e7a342c7c6ce99cbd5e74ff14038f41618f15240e25678efe173a29ac5998d",
        "e997fc6de517a9bf7f66c5a1cd1d5e27f24111daf12f12917206e6db923a24f6",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate not_c3": (
        0,
        "833ed9f718cac5253c91bab0bb424b6994d68672314b0f7a66738361ab11998f",
        "c0c7b834f9ed00eab26d308ba379cd647131db91615bec1b299366acca95fa42",
    ),
    SEARCH + "not_c3": (
        0,
        "d6c8c1fc491b4bc6f0b7c9244840f77c56e65cebdc28266c6fb873739acf30d5",
        "c556b07ce868d054d8038596c955a7b8f4f291df7f88e9fe9dbd34285af66243",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate comm_l_not_comm": (
        0,
        "2b8d6759a758611350c778d44e384a23f9cf7873c01496dbf034c9389f1943cb",
        "37550cf195c17a79d34f1d852684c6ab0b1d883776380e51b4784b2d6d6e8c94",
    ),
    SEARCH + "comm_l_not_comm": (
        0,
        "28fb74ff65533cc08db8e72e433f67499b25e066d5ca13011e7629bcfa3e22b7",
        "ac2a7d7df6c117b6cefacd113dac5afcd4b9344136f8cdea4235976590756350",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate comm_r_not_comm": (
        0,
        "fc048be5a2f3cc1a786213a2b6d5de0f7ff09a7fef9e581e91bfb0a9866f0996",
        "af05d0a2e7dcc6d8270c01f9917491eabefb9f7612148fa4f533ee200bbc9e56",
    ),
    SEARCH + "comm_r_not_comm": (
        0,
        "55c7caac609469dd53c747868b851f51592631e22b693add16199188f81bad06",
        "a0d01e9e2d39bb0097902e6aa2fa0c410c774e85b45babd1bf188a862b099707",
    ),
    "search --dim 2 --budget 400 --seed 5 --predicate comm_not_comm": (
        1,
        "04498ae6f3c08979fcc1c77dca15a63714627bc92c276365103081561f75a31f",
        "6be195db682f3870ac76bd3161b8232166c4e314fc65838bb7eb1fd1e48c7d10",
    ),
    SEARCH + "comm_not_comm": (
        1,
        "5831cb6adfbaaca337045afa12bc1add4fa678356f4e6ea8970f66eb59215071",
        "4e8270f7273c1727e1067a85b6ea6bfabe7f31c088e215727b73ad5c3ced057b",
    ),
    "truncate EXNILP_T" + SIZES: (
        0,
        "9ba25eb53815c852567a0246efb550b19b454dd02b9a51f67228d74f4749a870",
        "da55f8423a3cf6d7789c348b69a01c9bb5a922f7d429d41df0d85932dcecd8bb",
    ),
    "truncate EXNILP_N" + SIZES: (
        0,
        "6100c27e42d663d942a6da2a7fe99f6ed044463739b46e7532fd889caed2a42a",
        "39339adbf8868e57f567052d4387a7694fab8a752c881fe099e54670f117add8",
    ),
    "truncate EXNILP_Q" + SIZES: (
        0,
        "5c98ccc308f1fae3e4cbc9f2b3f4586380945ad2587d5f3a1e0d33500c866c8a",
        "8f5d4b5b6fd1115dc4bac36f03952a4790fad8232c9aa6d3e85d523acc3bfdf4",
    ),
    LARGE_TRUNCATE: (
        0,
        "dd2a4bcab294e2caba15625237e421e3ee464a96ecbe8145632667e1ac14bb2f",
        "1d735e19b046475a8f3ca3c910097a2eefc6bf8c3247ea34f566db5f0a212e76",
    ),
    "truncate EXNILP_T --sizes 640": (
        0,
        "7e581e0ab20eb3444efdfd682978cd9c40df04cf2b841ecbe7bf9aaf3c8bf290",
        "5c8117579d2998409d75b99488a5b010e67bf62f3044ac7add3d5b8fdd717c32",
    ),
}

# the fault of every other identity at VERIFY, where each identity passes at
# least once, so each fault flips a verdict
PINS.update({
    VERIFY + " --inject-fault " + name: pin
    for name, pin in {
        "L1.I.i": (
            1,
            "07eb907a139fc67d801cab850f2d5e3a96b98cb621dea1617d3a8e8ad7798a7d",
            "7d98c20d113b4ca3553ba0a37c5beef67112df6c5598c0400e8305cc9193a38b",
        ),
        "L1.I.ii": (
            1,
            "402d454dcc4076b7a3c7caaa40a0e2b88b764b4d92174dba263451716be3d8f3",
            "16d9af5fdb917cf1dd218db2ff4d534d394541416f0b2167d40bca0c29dfe5f8",
        ),
        "L1.I.iii": (
            1,
            "1f46487158e391327bcf381401b23d717854b3d6a58f96bb93947ed282507bb2",
            "b15a671f7710d7e11b536ca2b29612da4f2c1814c40fe8a8053b55ff3cd6671a",
        ),
        "L1.II.i": (
            1,
            "fa16500cb142c098064e871f8a8c0a5ad0e75bb307731db4c89ca9ebfd7e0e7f",
            "92bc973fd558d9770ee327bf20d6a858a73a276fa86a8081b43f31e6fa7d62d8",
        ),
        "L1.II.ii": (
            1,
            "ad1598c073b75807e052cff172b69b182052bd1589493f58d786fd765a452eac",
            "ff31536d02b5224d4e95385c237f1c4492d690c7bae54a954fff4ca65d2dd131",
        ),
        "L1.II.iii": (
            1,
            "dca570192cdf78eb5c022f716495f2820312108748c3961c243972d127379c17",
            "e4d207bbcbeed2f1267450e99501a8ae977700c88f62191a7a77b4b2c0b18cd6",
        ),
        "L1.III.i": (
            1,
            "48581631a3bf2fb301d749e64535ac4d2009232b172c7b8a33d53b39733ef52c",
            "43d25c96ee9dd6c9c6fc4ab7b8f6a36fff7c16bddd03d8aa1ea0ca2352e068f9",
        ),
        "L1.III.ii": (
            1,
            "b7001a78499fdeaa1def5d6c84517f50114b02ddf2e3b9820c4a1d5cfdf0ba2d",
            "3953c3d59c01562adbb51f72b1721d9f30e862b7b8c21297d2fb8730d80ec990",
        ),
        "L1.III.iii": (
            1,
            "b1ef0eaa488e2159c8bef397cba0ce712290718864a3eb5f673ef37c07bd49be",
            "3eea140c2ef961199bc980e64f2a718af5c174c059e83e6ee0809984cd3ba4b7",
        ),
        "L1.IV.i": (
            1,
            "751e6893a7a1a08fce7982cc71f8f4e5c11a455abe5faf1f45ff5134bd995a51",
            "c6219a6afb90ab67fb65d8ea9aa999aa6d97462eb69f74cc8cc7843feb62f5ee",
        ),
        "L1.IV.ii": (
            1,
            "032d4a3bd5d0cdb11aa8b4ec38d83e0dfd7aa88dccdf14f2773c8df420973c2f",
            "526090dfd6ab67a215653d943a02583ee89835119c0b5d4a016af09f01564df4",
        ),
        "L1.IV.iii": (
            1,
            "311993ef3f3ea7eff7361c7b6684264cef18723ddfd41a9a4f78253d9907fc0d",
            "49f0591451687dc299ec09a1ad233a414da313c76cd796d1435a555c7e1b937e",
        ),
        "R.i": (
            1,
            "0ee01b609e6773a6420480c8fe11adbb80ee2afdf3de0d813896689de1308111",
            "d8e15c89fd4d62beaf9d4906ff7f23a7264e5f526dc921c66e2e5f8a2105fdd8",
        ),
        "R.ii": (
            1,
            "af04e2ef96c4bff267338d2fb86ae6466a6af504d12c490c69bdc92947ca16cf",
            "ac7c61b36c1c65780496e52febb4c7177f6897eea6d9578eee417de2c3ad6fb1",
        ),
        "R.iii": (
            1,
            "1f706ea06dcbdc2bc6c6a265acb2802a590734ea81bae9c42ca7daadc6c7afd5",
            "05a6218a22e6ff63f76c3f5e545ece17660becbae1e5902b7897a498538b19b1",
        ),
        "R.iv": (
            1,
            "bb08b7bd133b97b5590b38c436576e40fda77a2f5563e092d0d008af5c4db707",
            "916e4c6167351f80a33ad2f9e7d2426c8288c718df260dce064db4036aa3c5b0",
        ),
        "R.v": (
            1,
            "a0ada932743bb68694e6d1e6febb7e76d396e9faf1a47a042e019b0f45efb580",
            "eca9ac1c0d8b23b5cb7f4a45c01935b34e040f46fc530fba57e94a8cc2f9a39e",
        ),
        "NEWTON_L": (
            1,
            "5212b5f05a9cba4cc4b404b163261b3237d82d41d7bfd423c654d50469bf0308",
            "93e54a9132e70c5b31bafe4adc160ddd72c1a59afc8de4465a9459a04d7c76f8",
        ),
        "BINOM": (
            1,
            "423975eafe9408bcc89a664ef44de7ec5d2057a07d731f57c0f2d31c428979b5",
            "e014b3214153974275eaf2bd4f4602613605e6b3d0773af916af11361ae6b5cd",
        ),
        "EXP_CORR": (
            1,
            "f7d392ec3fdbd1446578d6787f8db6691e30abe6a98de07cc7c8a2d5c3b199df",
            "1ef397d52542c7f64b6b8ee846244fa1942f3f89c896c769e3426f874554fc7b",
        ),
        "NIL_PROD": (
            1,
            "eb1887a25e44fe272166a9053c8f2104abc6338235a5e2d55c2e32d2c2d72f74",
            "4ae4535668191b7b9c88ea23759aa931ac49c4c4d1a55ba4fde37cf489fe6d1f",
        ),
        "NIL_SUM": (
            1,
            "4aa29c864d5ad2fe88db56a1310c0f1a861b70a2b69157917023eeb65211e969",
            "d01ffcb935c85b9d8ed898c877d8ad817b9f5fc28d74e815010827b4913001f0",
        ),
        "NIL_TELE": (
            1,
            "c453ae3d24409a382d2ea587b9d4fc36ede6ab9b82198aaf611710d91b574e16",
            "94b0dbeebcb0d87f88eaa3fcd7b71ac08e3a1a2d8f766a83c0efd0e326ea31e1",
        ),
        "RAD_PROD": (
            1,
            "09367a080a7f0af384c5857882c0587011a666ae0dfb286d5b3b60ca4673b52b",
            "b5a49cee1278d0dcd3576127cff2d5361cfc05d7f6d0b6d0a3b67f7daa8f1290",
        ),
        "RAD_SUM": (
            1,
            "0501d64ef7738014aeb6db8d6951fc165ff10010af151648713aa10ff2195520",
            "6cbdf3dd08c316b9c210cf1e13a614f969ec28e827f19840a151b9473d80a264",
        ),
        "QUASI_CLOSURE": (
            1,
            "b5e0d48f307427718e90f6a93376ffe75c96fc2c9c7d5641b1d2229bb436531b",
            "b0b3bc0f8a4bb36a03d93ab6317523506f189f25c6fd90c3f3255d3f5e13cecc",
        ),
        "SPEC_INCL": (
            1,
            "bc94fd036aded72972a56db388d43c2bdbc09c99f641c832cdbb4d9c0d7492cc",
            "0fc106d722c76f1688f6ce2e5b3e8ccad48ff167a1ee10faad8bd5b1fb81ffe7",
        ),
        "SPEC_EQ_N2": (
            1,
            "3a85f998bebb0c34285c23fb4d6d50febf0fa8020fafef2388822ffa414f8c4f",
            "ca90c8c0cbde5b03447e6ee859818101e1f902b8c04229a3566e722ad7aa0c89",
        ),
        "SPEC_EQ_W": (
            1,
            "3c227eefcb49316e80e4a1a67e285350e3dffcee6272abd798f897f794633dc0",
            "98288c0901965aebce6d4b512a149245bab2326ae623b89b741986b4992716a4",
        ),
        "KER_INCL": (
            1,
            "8f9461cb1204ce70408c2fdc760b34353d42c183264a8509fbb9eb3ca0bbe1c0",
            "5f69c15daf51716aa7f5568611be04775c5475676ada045c95a01f80c34279a3",
        ),
        "KRITERION_RANGE": (
            1,
            "34b5785e880329e5729d5bcbbd4120c0360ca342b55d83daa94db457ba70795e",
            "6b9f2ebe47f5e8d2e310a299f0bae8a60ae85b041f6a3036f3785cf96df06009",
        ),
    }.items()
})

# sha256 of the JSON lines of _expansion_sweep(), and its fail count
EXPANSION_PIN = ("d6fd4d8e3f4178c8bdb376d7f18461da8e852efd38ed954bb8966ffc568abf12", 80)

# sha256 of the JSON lines of _radius_sweep(), and its fail count
RADIUS_PIN = ("8e2b4d9df90872c25f6a75b2b1a523e000af4ef01c60bb260a5dac9859d99471", 0)

# sha256 of the JSON lines of _identity_sweep(), and its fail count
IDENTITY_PIN = ("347886e8956736bdbdf62e08f8f24c24c6d1bfa022f0d46ed99ae0d096757e80", 200)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _report(argv, fmt, capsys):
    status = main(argv + ["--format", fmt])
    return status, _sha(capsys.readouterr().out)


def digests(command, capsys):
    argv = command.split()
    status, json_sha = _report(argv, "json", capsys)
    md_status, md_sha = _report(argv, "markdown", capsys)
    assert md_status == status
    return status, json_sha, md_sha


# the acceptance gate, verify's default shape with its seed, and its JSON report
GATE = ("verify --dims 2,3,4 --samples 250 --seed 7",
        "f568f518a4f13b3ee4400593bb2f6178605819e010932fbe3c4bd6f35e2b19c6")


def test_gate_report_is_pinned(capsys):
    command, sha = GATE
    assert _report(command.split(), "json", capsys) == (0, sha)


def test_pins_cover_every_example():
    assert {f"example {e.value}" for e in ExampleId} <= set(PINS)


def test_pins_cover_every_fault():
    assert {f"{VERIFY} --inject-fault {i.value}" for i in IdentityId} <= set(PINS)


def test_pins_cover_every_predicate():
    for dim in (2, 4):
        commands = {f"search --dim {dim} --budget 400 --seed 5 --predicate {p}" for p in witness_predicates()}
        assert commands <= set(PINS)


@pytest.mark.parametrize("command", list(PINS))
def test_report_is_pinned(command, capsys):
    assert digests(command, capsys) == PINS[command]


def test_large_truncate_takes_under_a_second(capsys):
    start = time.perf_counter()
    assert main(LARGE_TRUNCATE.split()) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


def _sweep_pairs():
    """The pairs of the check_identity sweeps: one per relation class and dim 2, 3."""
    for k, cls in enumerate(RelationClass):
        for dim in (2, 3):
            yield sample_pair(cls, dim, 40 + k)


def _expansion_sweep():
    """check_identity results of the expansion identities, one JSON line each."""
    with_n = (
        IdentityId.NEWTON_R,
        IdentityId.NEWTON_L,
        IdentityId.BINOM,
        IdentityId.TELESCOPE,
        IdentityId.NIL_TELE,
    )
    lines = []
    for a, b in _sweep_pairs():
        for ident in (IdentityId.L1_III_ii, IdentityId.L1_IV_ii, IdentityId.NIL_TELE):
            lines.append(check_identity(ident, a, b).to_json_dict())
        for ident in with_n:
            lines.extend(check_identity(ident, a, b, n=n).to_json_dict() for n in range(1, 6))
    return [json.dumps(d, sort_keys=True) for d in lines]


def test_expansion_defects_are_pinned():
    lines = _expansion_sweep()
    fails = sum('"holds": false' in line for line in lines)
    assert (_sha("\n".join(lines)), fails) == EXPANSION_PIN


def _radius_sweep():
    """check_identity results of RAD_PROD and RAD_SUM at the pairs of
    _expansion_sweep, one JSON line each."""
    return [
        json.dumps(check_identity(ident, a, b).to_json_dict(), sort_keys=True)
        for a, b in _sweep_pairs()
        for ident in (IdentityId.RAD_PROD, IdentityId.RAD_SUM)
    ]


def test_radius_verdicts_are_pinned():
    lines = _radius_sweep()
    fails = sum('"holds": false' in line for line in lines)
    assert len(lines) == 20
    assert (_sha("\n".join(lines)), fails) == RADIUS_PIN


def _identity_sweep():
    """check_identity results at each point of an identity's grid, one JSON line
    each; RAD_PROD and RAD_SUM have a sweep of their own."""
    lines = []
    for a, b in _sweep_pairs():
        for ident in IdentityId:
            if ident in (IdentityId.RAD_PROD, IdentityId.RAD_SUM):
                continue
            for params in _IDENTITIES[ident].grid:
                res = check_identity(ident, a, b, **params)
                lines.append(json.dumps(res.to_json_dict(), sort_keys=True))
    return lines


def test_identity_defects_are_pinned():
    lines = _identity_sweep()
    fails = sum('"holds": false' in line for line in lines)
    assert len(lines) == 590
    assert (_sha("\n".join(lines)), fails) == IDENTITY_PIN
