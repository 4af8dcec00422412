"""Golden outputs: sha256 of CLI stdout for fixed commands and seeds.

The `gen`, `dims` and `kron-check planted` hashes were recorded before the
modular semistability certificate and the integer injectivity test landed,
so they show that both changes leave that output byte-identical.  The
`verify-tables`, `points resolve` and `points claim` hashes were recorded
before the lazy Bareiss scaling and the shorter-side rank landed; they reach
`rref`, `kernel_basis` and `solve`, which the first set does not.  The
`kron-check certified` hash was recorded when the certificate prime became
32749; the output before differs only in its `"prime"` line
(2305843009213693951, that is 2^61 - 1).  The `kron-check pencil` hash was
recorded when the pencil closed form left `is_semistable`: the verdict
became the blow-up's, and the output before differs only by the
`"certificate"` it now carries.  The `stability` hashes, one per criterion
over the `gen --seed 1` sample of every registry row, were recorded before
the criteria lost the verdicts that only a map that is not injective
reaches, so they show that the deletion leaves that output byte-identical.
A deliberate change of output must update the table below and say why.
"""

import hashlib
import json

import pytest

from planesheaves.cli import main
from planesheaves.strata import REGISTRY, generate

PENCIL = json.dumps({"source": [-1, -1], "target": [0, 0, 0],
                     "matrix": [["X", "Y"], ["Y", "Z"], ["Z", "X"]]})
# a 3 x 4 module with a literal 2 x 2 zero block: 2/4 + 2/3 > 1
PLANTED = json.dumps({"source": [-1, -1, -1, -1], "target": [0, 0, 0],
                      "matrix": [["0", "0", "X", "Y"],
                                 ["0", "0", "Y + Z", "X - Z"],
                                 ["X", "Y", "Z", "X + Y"]]})
_POINTS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"],
           ["1", "2", "3"], ["2", "-1", "5"], ["3", "1", "-2"], ["1/2", "4", "1"],
           ["-1", "3", "2"]]
POINTS = {n: json.dumps({"points": _POINTS[:n]}) for n in (5, 8, 9)}
# a semistable 3 x 4 module that the first 4 x 3 blow-up certifies
CERTIFIED = json.dumps({"source": [-1] * 4, "target": [0] * 3,
                        "matrix": [["X", "Y", "Z", "X + Y"], ["Y", "Z", "X", "Y - Z"],
                                   ["Z", "X + Z", "Y", "X"]]})

GOLDEN = {
    "gen chi1 X_0": "6b686f189dea2b463612b429176cf49a53560e864e5c5bf08107cf44b6c5d95d",
    "gen chi1 X_1": "7ee8c280ca55744c898a334cd7bd3720b28fb4954286f1e2a447e09098ed194a",
    "gen chi1 X_2": "5a66ff3e12455c8cc5efb9fd37b24399c6ffd7ff60fafb7031a57b8234bce57e",
    "gen chi1 X_3": "1ca5771e234287ed2e2d3af08a4f7ddb2bece72d79c8c6775d9855b59ae624c4",
    "gen chi1 X_4": "d48ef909d060f0951cc83179cd6344041188f69a11c8232e1391fdb4d5cdc29b",
    "gen chi1 X_5": "d80a4940840ef403c77b2cfda32ee89f9804fd845b2f042293728927b1de5ae4",
    "gen chi2 X_0": "7273f0c1a533cf0101c20964c915356beb3c01136278aa79fa926af71df6e9a1",
    "gen chi2 X_1": "6f393b5bd9a6837a1340a90755151407f3308a38432c2768e3398f7e0eecf275",
    "gen chi2 X_2": "549aec3233715b1b42165f93d2cd9b26661c436382d30262456e8b17cdf78afb",
    "gen chi2 X_3": "d8c4054ee77affe6724b7a7ba85b562e78aa39a88992bab0f75e20c030b9a5b4",
    "gen chi2 X_4": "feee013ff71ccf4b01fab592bb1bb9bcdb7647a1259f478736561c67fc4ab7a6",
    "gen chi2 X_5": "ebcc7bf37fc27366c42c2b5e0c38b1a3c4d6d87245adea32994f111ace75a8b9",
    "gen chi2 X_6": "65f1fecef7e9659e1375452b44962b777e22e187785aebcef9ea42d448896ba7",
    "gen chi3 X_0": "80c87a5e9184497a23699e5a5f1a63b3ce13cb5c50bafe898515db6ce0730af8",
    "gen chi3 X_1": "a70c83b7d54933585ca5fce2190f8d8cefe7a8c1bfb940a40a207b8f6108de04",
    "gen chi3 X_2": "7ed9b92bc72ded8d92789d1bfdebb71658865a5eda1f1131f60b3c84f465631f",
    "gen chi3 X_3": "853c847d5183dd40dbc9b20ac783fb4218f1fc755db79105849df86796570ad2",
    "gen chi3 X_3D": "7210ff5f562076276b7e40dfbb75c6c8b76e7636f247a899887bf17b31b763ba",
    "gen chi3 X_4": "5aad649db40cfb5af6605a2c5fa588dc16157b36975904b5af9d4ea7cd457ea1",
    "gen chi3 X_5": "a3fac06a55a4ad92861b27262c495b24122d855d2187c8526d50fd7f3720fb2c",
    "gen chi3 X_6": "88af270397fd04acad180070a61e4edda2f19c1f6936e3b9d12115200ebb9001",
    "gen chi3 X_7": "5ad6c4e43b5d07ce30d0d150170ed4df6748795659adfcebd7f060368b6cd522",
    "gen chi0 X_0": "f7ad27666a1e49b36705826e3d22f46e2e61a435206c56fe761d7fca1e71f911",
    "gen chi0 X_1": "e67bad9803fee77704c07bec0e6210f42c917750a8ddefc80e2e541350ebf39f",
    "gen chi0 X_2": "626620bdff1dca0ba7d43055c24f295c00683443f3e8d00d1f75f31c7b963912",
    "gen chi0 X_3": "3ab040ed98efd04e235cace7f3c97188c2007db26fb50cc0c36f833e959abb83",
    "gen chi0 X_3D": "98f3e46f07306439c958ad59bd02d88dac28720073056605c9f19a4da27f62cb",
    "gen chi0 X_4": "d1399b150e785051dc0917332dd28c2fcfe03eba92fad08c9b57290f39df8baa",
    "dims": "c108de9799532b0f43e6d2396520d8343079bdaa4431d74d36d9c4c62b3bac24",
    "kron-check pencil": "6a722ee0d6a2447034b74978698c55b517761c1f532e3f4e482a1035b7dad034",
    "kron-check planted": "40202d9587a42d68642ed9c914e48f552965592e3b3d50a2303b90ce14e05a6a",
    "kron-check certified": "8ae1352712748b8758f4ce9347019a859b815eee518466a9fcf82a746aec389c",
    # the JSON holds counts and failures only, so a passing run reads the
    # same at every seed
    "verify-tables seed 1": "e1c6f600de4562cef3b1048d98a11cba913aca8ffb7f6594202071ebc29939c8",
    "verify-tables seed 2": "e1c6f600de4562cef3b1048d98a11cba913aca8ffb7f6594202071ebc29939c8",
    "points resolve 5": "0c187f5303578f5d198161d15e6de2f50a9fb7ad35a9eea12ac7ef9f8874a3c6",
    "points resolve 9": "5171a398b07de330d2962885678a4b2e7e5aa6cd2ae980021a2e7d716547bd03",
    "points claim len8_general": "e20fa4fc24ffa5e4280fbb8ceef8c822f956b3e235f31db10e7be4e3968fb894",
    # exit code and stdout of each row's call, in REGISTRY order
    "stability auto": "ef5c2db96d07047a9f91780dd48bc480927d568a0d4ac245ecf91f4368a09ff8",
    "stability minor-gcd": "bfb07c030f664cc7f0ea70c2190d76347bc0ba1cfdbe01257eb9cfb07459b98a",
    "stability two-by-two": "d5840c9b654ad8c61a52fcffc2f619bffd5d49e0605c0ef8702c0b2cde938747",
    "stability pencil-block": "ddb1bcae3b92d20d9bed47f6700b5bbfb7b90de970c26b234c2d63baef292aea",
}


def _sha(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("row", REGISTRY, ids=lambda r: "chi%d-%s" % (r.chi, r.id))
def test_gen_seed_1(capsys, row):
    code, digest = _sha(capsys, "gen", "--chi", str(row.chi), "--stratum", row.id,
                        "--seed", "1")
    assert code == 0
    assert digest == GOLDEN["gen chi%d %s" % (row.chi, row.id)]


def test_dims_json(capsys):
    code, digest = _sha(capsys, "dims")
    assert code == 0
    assert digest == GOLDEN["dims"]


@pytest.mark.parametrize("name,blob", [("pencil", PENCIL), ("planted", PLANTED),
                                       ("certified", CERTIFIED)])
def test_kron_check(capsys, name, blob):
    code, digest = _sha(capsys, "kron-check", "--input", blob)
    assert code == 0
    assert digest == GOLDEN["kron-check " + name]


@pytest.mark.parametrize("seed", ["1", "2"])
def test_verify_tables(capsys, seed):
    code, digest = _sha(capsys, "verify-tables", "--samples", "2", "--seed", seed)
    assert code == 0
    assert digest == GOLDEN["verify-tables seed " + seed]


@pytest.mark.parametrize("n", [5, 9])
def test_points_resolve(capsys, n):
    code, digest = _sha(capsys, "points", "resolve", "--input", POINTS[n])
    assert code == 0
    assert digest == GOLDEN["points resolve %d" % n]


def test_points_claim_len8_general(capsys):
    code, digest = _sha(capsys, "points", "claim", "--claim", "len8_general",
                        "--input", POINTS[8])
    assert code == 0
    assert digest == GOLDEN["points claim len8_general"]


@pytest.mark.parametrize("criterion", ["auto", "minor-gcd", "two-by-two", "pencil-block"])
def test_stability_on_gen_seed_1(capsys, criterion):
    digest = hashlib.sha256()
    for row in REGISTRY:
        sample = json.dumps(generate(row.chi, row.id, seed=1).to_json())
        code = main(["stability", "--criterion", criterion, "--input", sample])
        digest.update(b"%d\n" % code + capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN["stability " + criterion]
