"""Byte pins of the artifacts ``sim relax`` and the ``randomness``
commands write.

Each case runs one command in a fresh directory, after writing the lists
``rng.txt``, ``smooth.txt``, ``short5.txt`` and ``short10.txt`` that
``audit`` and ``gap`` read, and compares the SHA-256 of each artifact it
names ("-" for stdout) with a digest taken from earlier code: the
audit and gap of the short lists from code whose ``simulate`` built its
own state, the ``equilibrium``, ``half_box`` and seed-batch relax runs,
the raw smooth-box list and the smooth-box audit and gap from code whose
``simulate`` kept the queue of rows the sampler owed and whose lzma
estimator compressed the whole packed list at once, the rest from code
whose sweep child was a bare ``os.fork`` and whose CSV writer regrouped
rows into 4096-line blocks.  D_hat and the zlib estimates are zlib
lengths, so another zlib build may give other bytes.

``rng.txt`` holds 2*10^6 bits, past ``randomness._HELPER_MIN_BITS``: the
"best" audit and gap run delta in a helper thread where two CPUs are
usable, started once the header is read and fed each slice of the body
as it is read, and in the caller after the read on one; a ``sim relax``
samples in a forked process or in its own.  Both ways must give these
bytes.
"""
import hashlib
import pathlib
import zlib

import pytest

from kolgas.cli import main

_LISTS = (("randomness", "generate", "--kind", "rng", "--n", "100000", "--k",
           "20", "--seed", "5", "--output", "rng.txt"),
          ("randomness", "generate", "--kind", "smooth-box", "--n", "100000",
           "--output", "smooth.txt"),
          *(("randomness", "generate", "--kind", "rng", "--n", n, "--seed",
             "5", "--output", f"short{n}.txt") for n in ("5", "10")))

_RELAX = ("sim", "relax", "--particles", "200", "--transits", "24",
          "--trace-output", "trace.csv", "--events-output", "events.csv",
          "--wall-model")

_GENERATE = ("randomness", "generate", "--kind", "rng", "--n", "5000",
             "--seed", "7")

_AUDIT = ("randomness", "audit", "--input", "rng.txt", "--estimator")

# the events CSVs hold 4800 to 8586 rows, each past several of the
# writer's 1024-line blocks
_PINS = {
    "relax-rough": ((*_RELAX, "specular_random_sites"), {
        "-":
            "70594dabfb20da212bb64ca8c63af8f9df22a46fbd9040c1e8b763b7413ce172",
        "trace.csv":
            "abc764ed2ba3301be09fddb61ecc03677d232603596272986406762792489623",
        "events.csv":
            "fa87aab69a037ad1f13ce4d03fd86c63dd86c61eca9399c49d1ba2b792af76fb",
    }),
    "relax-thermal": ((*_RELAX, "langmuir_thermal"), {
        "-":
            "f471ce29fa6f33fe49c8b74bf1518b724d545486f7f328b73e4d3658faeab414",
        "trace.csv":
            "e0051e70d7fad1943449d3a801477a99a0152a59a017bcd6770779cd5904e1f3",
        "events.csv":
            "312d77498cb4b67365179463c85c9ee0d88493a60d4d740eddf6d907071f8037",
    }),
    "relax-smooth": ((*_RELAX, "smooth_specular"), {
        "-":
            "ee6f2ffdd2c3c88df969bccdf1e3c2c97307713b692d0a6b060a17722b021322",
        "trace.csv":
            "b87b69705a01ae768f903a5abbe88920c43917b831a1e3a97c7724080001e49d",
        "events.csv":
            "34bd5e6cec9436310eb2f8c3571de6b7f66350469d0017405818a5c720410884",
    }),
    "relax-equilibrium": ((*_RELAX, "langmuir_thermal", "--init",
                           "equilibrium"), {
        "-":
            "82badee24ef76b836a6211832975f7ba543990918ae54f60952ed764339099a1",
        "trace.csv":
            "840d287e1b8bd09c31e4556954feb6f41a1c72cbf0065292c7b15708547dc1eb",
        "events.csv":
            "a088e708368e9a643ea6675adc042ee88749b39825cc6e2e5de6d11cdd1c6171",
    }),
    "relax-half-box": ((*_RELAX, "specular_random_sites", "--init",
                        "half_box"), {
        "-":
            "0edbe79262dbd7861cda4a25b32c6ab3a1f6bbb419809d83d982e3ed9460da62",
        "trace.csv":
            "89bcafb852686f30e286f972dcbf092a452057e63c2836fe65ca9335b0017e85",
        "events.csv":
            "3e2dfdb87e4d3f3341579581ed58e4d223c5e14d97a2c9dd11844a2f585710e0",
    }),
    # the trace and events of the last of the three runs
    "relax-seeds": ((*_RELAX, "specular_random_sites", "--seeds", "3"), {
        "-":
            "890b43438db8a88323cb05bc93c0e00d6f8622f7931d58775cd386443f7247f4",
        "trace.csv":
            "b4b2b9c47891d5ea5dd08c9aa05ae03eaef2ee31488ee71e47129251cd18a99b",
        "events.csv":
            "4193f1efbb703948f0cad525c4bf23b6f0372514d40a62032b83ebea60534ef6",
    }),
    "generate-decimal": ((*_GENERATE, "--output", "list.txt"), {
        "-":
            "8a0e1ad03ac604580c5b0b636e61af865c7150a2b454655ed225d4fd02462ba6",
        "list.txt":
            "4a7bc307bf19b63648a890138d2ed8cfac9355154655f95607b2304d30063ce9",
    }),
    "generate-raw": ((*_GENERATE, "--raw", "--output", "list.bin"), {
        "-":
            "556bf1d135f427c3e043207f7088526834f33d5fb9e55c5d427a2fcde48007c5",
        "list.bin":
            "b4b8f2494ec9ed0b7e3cbdf986cfa7500260463068668fe5b59167eb67f22a3a",
    }),
    "generate-smooth-box": (("randomness", "generate", "--kind", "smooth-box",
                             "--n", "5000", "--output", "box.txt"), {
        "-":
            "e77f231306d56dac6ac45a3a7c04437e76ac6132e0fdb5958378d39e8b0fc571",
        "box.txt":
            "03f804c647f032b313fb07bac65bf3065dc644af3707382eef7a64abb2e2d8fe",
    }),
    "generate-smooth-box-raw": (("randomness", "generate", "--kind",
                                 "smooth-box", "--n", "5000", "--raw",
                                 "--output", "box.bin"), {
        "-":
            "dfea826e962acd3085f0f5885c8c886fdc2c0c4fc72548b76760018911f75654",
        "box.bin":
            "1928c35f629d38af679e7d6e59e042806c132f9704eab8d217e0b94e68be7692",
    }),
    "audit-zlib": ((*_AUDIT, "zlib"), {
        "-":
            "2fe8c8e568cccbba5ee8625b5d54c2ecf6ea8be8aeecb4233990fc3b529579ad",
    }),
    "audit-lzma": ((*_AUDIT, "lzma"), {
        "-":
            "593a1b715f4a7e3176c98b21a6db999db600c0126f6642023c61222e0ab6f6bd",
    }),
    "audit-entropy0": ((*_AUDIT, "entropy0"), {
        "-":
            "b2cfa5e076ab8513457080ed5219d77766564e7164bd120cd065fe70d2df3d90",
    }),
    "audit-entropy1": ((*_AUDIT, "entropy1"), {
        "-":
            "349ea4e9e73b26c4c97eaeab7bc77a7b41a6e42f934b7b5cb18bf7f4b1b5e566",
    }),
    "audit-delta": ((*_AUDIT, "delta"), {
        "-":
            "09dd96fdf1f5e3ecd8faa06e0457a72de9dd00cae5b460f2c4811a73c76e938e",
    }),
    "audit-best": ((*_AUDIT, "best"), {
        "-":
            "ec59235f7e8fcefbc472a1c1aaa00c7b3473bfa62b5e570c739ffe151d1c93a4",
    }),
    "gap": (("randomness", "gap", "--input", "rng.txt"), {
        "-":
            "6ff44da1dee72689611197bb90ba0cc555bd77c92d5ffdddbf7f3bcfeefa6d3a",
    }),
    "audit-smooth-box": (("randomness", "audit", "--input", "smooth.txt"), {
        "-":
            "02e4aeca39262b4ae4056b9420fc6df9a91ef2b85b9bf0fd86968ad9290d9c15",
    }),
    "gap-smooth-box": (("randomness", "gap", "--input", "smooth.txt"), {
        "-":
            "b4a2673c57ce272285c53949d8dfe1bac5258eefb4954165cfeadbdaea9db3de",
    }),
    "audit-short": (("randomness", "audit", "--input", "short5.txt"), {
        "-":
            "aabb30362faa84db940b72a0aef302be7437ad4b6963007e966af9f18e9236fd",
    }),
    # the shortest list gap accepts: its prefixes of 8, 9 and 10 entries
    "gap-short": (("randomness", "gap", "--input", "short10.txt"), {
        "-":
            "e4d3a595676480385373b3921376ff2d2c83fb381f9a05fa3f400347faa97a88",
    }),
}


@pytest.mark.parametrize("argv, digests", _PINS.values(), ids=_PINS.keys())
def test_pinned_bytes(tmp_path, capsys, monkeypatch, argv, digests):
    monkeypatch.chdir(tmp_path)
    for argv_list in _LISTS:
        assert main(list(argv_list)) == 0
    capsys.readouterr()
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    for name, digest in digests.items():
        data = (out.encode("ascii") if name == "-"
                else pathlib.Path(name).read_bytes())
        assert hashlib.sha256(data).hexdigest() == digest, (
            f"{name} under zlib {zlib.ZLIB_RUNTIME_VERSION}")
