"""Pinned address streams: sha256 of every synthesized, expanded trace.

The synthesizer and the executed tracer drive the same level functions,
so the byte-identity suite in ``test_trace_synthesis`` cannot see a
change that moves both streams together, and the trace store
(``_STORE_VERSION``) would go on serving traces built before it.  These
digests pin the streams themselves: any change to an algorithm"s
operation order, temporaries or spawn structure fails here, and then
needs a deliberate new digest table and a store version bump.
"""

import hashlib

import pytest

from repro.algorithms.dgemm import ALGORITHMS
from repro.layouts.registry import PAPER_LAYOUTS
from repro.memsim.machine import scaled
from repro.memsim.synthesis import expand_table, synthesize_multiply

MACH = scaled(4)
TILE = 8
SIZES = (16, 24)

#: sha256 of ``expand_table`` over ``synthesize_multiply(algorithm,
#: layout, n, TILE, mode=mode)`` under ``scaled(4)``.
DIGESTS = {
    ("standard", "accumulate"): {
        ("LC", 16):
            "d3b00a1d39c98f8322a7e911dfa6e0ebbbb9d8681bc2112d2378f2687988caf9",
        ("LC", 24):
            "b072afac44c18b6fb5b08746cd3d2ffd9f71341e39ba158a73ef1cf92ad919bb",
        ("LU", 16):
            "eddc53cd1383bc70048bf7efd6aea242176dfdfb3f71b1ec0d2904847fd03f24",
        ("LU", 24):
            "3e6e0e17047ffb820b9470384df347f1360be49b6d8e0db3be502a7e49e388f1",
        ("LX", 16):
            "49f845e3f10a980a2be1803d77bfeee58679bd1c25f7517771c304e4393dba42",
        ("LX", 24):
            "3bf05b4912164efb60405322db73e50e17bdf2e0292e4cbaa3cd3c457c94b546",
        ("LZ", 16):
            "23fcdcf7c11b2b4431209473fe516ff6a49443340f42c909b95601c494c19b01",
        ("LZ", 24):
            "ae5cbad60637786311efa7df3a24b7aca2e74a7451c9816fca812e21e2c0882f",
        ("LG", 16):
            "2f30ca7ed2be24b4569b6a2e99e0f9f13d05458cffbf66e55dee1022949843a6",
        ("LG", 24):
            "f472623a6366dc593bf991e439d971073836226ffcad0b3a939f624516abc626",
        ("LH", 16):
            "eddc53cd1383bc70048bf7efd6aea242176dfdfb3f71b1ec0d2904847fd03f24",
        ("LH", 24):
            "8e4bf1a190aa106e9da3194dbaaec661c1bf4f73278075256c4a70a2276c330b",
    },
    ("strassen", "accumulate"): {
        ("LC", 16):
            "45faef167477e40fb86f2833de41b9ae27b8a4ca28714fbd9b21a9c81a311737",
        ("LC", 24):
            "4092a8b92f5e0fc7b82d74b333c8e5bfc94b4fc9b1bd8d366c9c1494e18b9b70",
        ("LU", 16):
            "dd45583fa59ad96567731515f1c27d134acf8f573cd46af1c1316c9e2c1c8cfa",
        ("LU", 24):
            "158877a97a8efb923f92eb040743694d09e266cccb088ce869c6fc5963fdb700",
        ("LX", 16):
            "006ce99c8bbb612f1775c0c35783be8652b3d71286947a1f497a48ea48522994",
        ("LX", 24):
            "5b049642bf74f2ee0f7e8e1115cf22d5e72f1217e788f90822822362bebf0677",
        ("LZ", 16):
            "2ef304ea6c48ff7e7ec50b19c94e84c6c3ef8ea929299e35dff19cef4c08b7bb",
        ("LZ", 24):
            "f54403b9b5c8bdbbb1d5d2253c904a79faa3c1c3bb98f3a48b51337a76d13e7b",
        ("LG", 16):
            "c39044e38fe779602453f3406a0a70a4da3802ed83f903473ab983f5304df670",
        ("LG", 24):
            "c81224fa132bced0d966195d0070ad5d438a90e548b2632479fd36bf394c5ad8",
        ("LH", 16):
            "dd45583fa59ad96567731515f1c27d134acf8f573cd46af1c1316c9e2c1c8cfa",
        ("LH", 24):
            "cc17dd28102c951b025f50a8bbdcc110220421357f74420679d20a7e5233ae2e",
    },
    ("winograd", "accumulate"): {
        ("LC", 16):
            "edf4a382e5644b53f65105715fa2b5614780ffbaf721505db5273689f17d1cef",
        ("LC", 24):
            "669cd6fbe2faddb3c8beb618785c16e73c9ca2af09f190fc111645390b19159c",
        ("LU", 16):
            "a85e526f075ba19f9fdb10c079bf38518f534a86bfca6a60f7649ff6b873e68e",
        ("LU", 24):
            "57938132283cb4a8791952eebead1f8dec002fa72b5c0e443f928462960682cd",
        ("LX", 16):
            "207028ff5296ecf9c4ae9a9dddb48fe713d1370eafeb4d1461c5dc5916af0c02",
        ("LX", 24):
            "39206ce47bd4fc4b7674f56c5cab0c92605493d3891221e80652488232c335a2",
        ("LZ", 16):
            "320cee1ca283d644d49c2fa27f4ae623000dbc87be93890c71b8774325f88a63",
        ("LZ", 24):
            "302651a43b0f94f8456dd7f2fee6f3e7ae05fdcd250a0f5b522863791373c269",
        ("LG", 16):
            "af5e26383d9294c1bc38bd72310e2e7af7223961d1048012627178da6885159c",
        ("LG", 24):
            "c77b168facb46ff9ab631f2b876addfb31a160b599f9f0abe2837c8152adaf21",
        ("LH", 16):
            "a85e526f075ba19f9fdb10c079bf38518f534a86bfca6a60f7649ff6b873e68e",
        ("LH", 24):
            "c9c19d635c95a5c8084ba79b2b670be7ed993e3cf8d132bdc89606086a43fc2e",
    },
    ("hybrid", "accumulate"): {
        ("LC", 16):
            "45faef167477e40fb86f2833de41b9ae27b8a4ca28714fbd9b21a9c81a311737",
        ("LC", 24):
            "33878b75ce4c2f4e2e71d36c691a85f1ba96fbfc9a78ec13f8526222b6df7ba8",
        ("LU", 16):
            "dd45583fa59ad96567731515f1c27d134acf8f573cd46af1c1316c9e2c1c8cfa",
        ("LU", 24):
            "5cebb340df8b30b54ccbaf06608d145b8aba7db2c932265a4398e75cd7de4751",
        ("LX", 16):
            "006ce99c8bbb612f1775c0c35783be8652b3d71286947a1f497a48ea48522994",
        ("LX", 24):
            "9ffce17086753c2204b7866ef8123f5d303455249c91ea42f1954b03a174d725",
        ("LZ", 16):
            "2ef304ea6c48ff7e7ec50b19c94e84c6c3ef8ea929299e35dff19cef4c08b7bb",
        ("LZ", 24):
            "b51e14b029e255848f63bc9a1d0c6a87697c967078225372322f3f0e63854411",
        ("LG", 16):
            "c39044e38fe779602453f3406a0a70a4da3802ed83f903473ab983f5304df670",
        ("LG", 24):
            "d4c42f5c0df2c03b07492a133aab7c102d69b6221d9ea5cf2d27d9017c246496",
        ("LH", 16):
            "dd45583fa59ad96567731515f1c27d134acf8f573cd46af1c1316c9e2c1c8cfa",
        ("LH", 24):
            "c37183211ab775dbf0ee0623e8bcbd55c2ed018601f4c9ed2d8ae6f3d696bf49",
    },
    ("strassen_space", "accumulate"): {
        ("LC", 16):
            "7265b008e23468eb88f350c17d46d147529c8007a4bc22268e3dfa40bee41d98",
        ("LC", 24):
            "7c5d56ae834216c6a61fe2644315bd1de76c21fde632f2c055238afaa53483e1",
        ("LU", 16):
            "804216f9509f0077789ab60cfe760bfe25176f509325e2d17cdf49c3e145ad6f",
        ("LU", 24):
            "f0846c635e6854aaf2e261804b818af2f4b0038a2aaf10d13716f322fef06a93",
        ("LX", 16):
            "ff1de46d18bc7e3ea191399dd46d0356199512fabf38afe55680ff788a23f083",
        ("LX", 24):
            "92a213d9a6a2a9261520b9d3444b58c33d5210b978e21dd0807986238e3946e0",
        ("LZ", 16):
            "990e205672917139519220ad8c12dd0012e850043001469d385882ea6359f8e5",
        ("LZ", 24):
            "27b27b26ef8a1e41f26f662e17e1582b17505398542a4242a1f7344b7a3bd157",
        ("LG", 16):
            "d440c21ca83e8f91ad93761ed9cba070a4265c2a70e131c9ff6a55f3023d80a5",
        ("LG", 24):
            "0c4a23f1220b9d40c232393cbb2006498ae81b01ff293733c215166e2c32da36",
        ("LH", 16):
            "804216f9509f0077789ab60cfe760bfe25176f509325e2d17cdf49c3e145ad6f",
        ("LH", 24):
            "e8a06f52349d0396f7d2efbb6dad4c0cc0318925a6be8c06fec815e65cb9dae1",
    },
    ("standard", "temps"): {
        ("LC", 16):
            "c78472a3b17d8ed14d865ab46dbf950b110336d8357b9e8f5b1ea283baa1bc58",
        ("LC", 24):
            "e97f2e8b4e64bcfbedcad024af0995c7d337f88b9fe6f135eba9a8a22fab348b",
        ("LU", 16):
            "143f0acc8364eddf32dacd76992e77efdbd975d06f5444c30e7380001b0dc3eb",
        ("LU", 24):
            "9c7510be423001d1c920a3a2f812ba9b984189d61201357932836d613cf68128",
        ("LX", 16):
            "56aef3c21f6ff512e1513e75de1e9b7d28e257ad568054fceb8699b0b0866c0b",
        ("LX", 24):
            "9145774e6b18bd4e78a68abda3e63cf40f2dd5aede8b93a2ec7d8e5642c50aa3",
        ("LZ", 16):
            "c675cbe5dad50ce9c64cbca976810b61ea0466bbab4c31c9d087f934d1415e30",
        ("LZ", 24):
            "1cc6b6cb38595fa8e6f9316749da0e6778f3c87b9ad63e87f62eaa89f64f5615",
        ("LG", 16):
            "3613d35c7038843092b5e65f79f316e4861930c22e8493772eab055bceb73076",
        ("LG", 24):
            "ae72b8f5cc48d6347afd63d02f37a9ce8ff1934a79da61abd98b8adcd254c238",
        ("LH", 16):
            "143f0acc8364eddf32dacd76992e77efdbd975d06f5444c30e7380001b0dc3eb",
        ("LH", 24):
            "2ed556075c15fb333d7fad75e79f0f6cabd2a92280e5825e965fecf93ad1cda6",
    },
}

CASES = [(algorithm, "accumulate") for algorithm in ALGORITHMS] + [("standard", "temps")]


def test_every_algorithm_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("layout", PAPER_LAYOUTS)
@pytest.mark.parametrize("algorithm,mode", CASES)
def test_stream_digest(algorithm, mode, layout, n):
    table, sizes = synthesize_multiply(algorithm, layout, n, TILE, mode=mode)
    stream = expand_table(table, MACH, sizes)
    digest = hashlib.sha256(stream.tobytes()).hexdigest()
    assert digest == DIGESTS[algorithm, mode][layout, n]
