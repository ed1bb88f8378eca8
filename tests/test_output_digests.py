"""Byte-identity guard for graph exports and printed results.

Each graph command's `--out` file, and the standard output of each command
that prints its result, is pinned by a sha256 digest.  A change in how the
graphs are built or walked, or in how normal forms are computed, therefore
cannot move a vertex, an edge, an exactness tag, a delta value or a normal
form unnoticed.  Update a digest only together
with a stated reason for the changed output.
"""

import contextlib
import hashlib
import io

import pytest

from garsidehyp import cli

GRAPH_EXPORTS = {
    ("quotient-cayley", "--group", "A3", "--len-bound", "2"):
        "b99ff7c5ac2228eefac0e00042a518e7944f5def8351b6b3af0919b550edd923",
    ("quotient-cayley", "--group", "A3", "--len-bound", "3"):
        "22206da201ee3941a9f50aa9883de08d5730ab6b79d1e57e5597be97b2a54638",
    ("cal", "--group", "I2(5)", "--len-bound", "3"):
        "ae84bb2a3fdea9add8cfa6708971c8f476de211e2abdef419579b36ab6bc6904",
    ("cal", "--group", "A3", "--len-bound", "2"):
        "8ad979cb2921a72e11c10e7644ec5febb833bf594d7d8c6b3a88e1a6c3c3b837",
    ("ball", "--group", "A2", "--kind", "Xabs", "--radius", "2", "--universe", "2"):
        "875c8b7e24a32d99862b9178119e88dd70ac96b1e8f0302098db42ee52901a1c",
    ("ball", "--group", "I2(5)", "--kind", "XP", "--radius", "2", "--universe", "2"):
        "838b024e446b9288d97d0d6304b813ca0e4be31ab56c7069ea98c54026a5ca6f",
    ("ball", "--group", "A2", "--kind", "XNP", "--radius", "2", "--universe", "2"):
        "27d94805ddca7c730e26e054bbb26cb88c96db60cdaf88b38d2c3e085b67e383",
    ("ball", "--group", "A3", "--kind", "XNP", "--radius", "2", "--universe", "1"):
        "c1b135d8de3344c00b98145a55dc4fa0fc8d7f0698e4f9f252d363087e11ef8e",
    ("ball", "--group", "A3", "--kind", "Simples", "--radius", "2", "--universe", "2"):
        "16c954543d5b72f7f4f5f3898c0ea99cb702aec692b93c112875acb3c333d5e8",
    ("ball", "--group", "A3", "--kind", "Simples", "--radius", "3", "--universe", "2"):
        "024015f8617a9ee10dc9d34f3ba08b7e519f5316fc01c54db1b27a64df2ea76a",
    ("ball", "--group", "A2", "--kind", "XP", "--radius", "3", "--universe", "2"):
        "b9c3efa7e3eeede79de3f9cf9b511aa192ffe7c6fddb3f882837675ee570aa05",
    ("quotient-cayley", "--group", "D4", "--len-bound", "2"):
        "68f12e8e98e4668310f936ae78bbf28aedef7591e6ce5097da10bd924f1fcd75",
    ("cparab", "--group", "A3", "--p0", "std:s1", "--conj-len", "1", "--hops", "2"):
        "9f2121f046d020136686737ab89920835dab825e16b77b46cfcd5ef6ea36fc0e",
    ("cparab", "--group", "A4", "--p0", "std:s2,s3", "--conj-len", "1", "--hops", "2"):
        "35fb4756f6f2bccabbccaa97f35efb7517f16bf530709e27704d58936f5e9729",
    ("ball", "--group", "B3", "--kind", "XNP", "--radius", "2", "--universe", "1"):
        "ea36ae6942ea25cb841d76e8e11c43055a1e293e8e4e633da22d722ae514b54a",
    ("ball", "--group", "D4", "--kind", "FiniteS_plus_Delta2", "--radius", "4",
     "--universe", "3"):
        "96f1d68621fe3c876f78d980eda02cb24e8e7aef474ebb9e9d9ced0e293673c1",
}


def _wordlen(group, kind, word, universe):
    return ("wordlen", "--group", group, "--kind", kind, "--word", word,
            "--universe", universe)


# command -> (exit code, sha256 of standard output)
PRINTED = {
    # re-recorded when delta-estimate gained delta_exactness and the
    # quadruple counts; without those three keys the text is unchanged
    ("delta-estimate", "--group", "A3", "--len-bound", "2", "--sample", "200",
     "--seed", "3"):
        (0, "af6c1c3177be60903d7348420e939ee84c6823913789e1078453f4c1f67f1189"),
    # fat-triangle distance checks, recorded when the distances moved from a
    # breadth-first search in a truncation to the coset-distance formula
    ("fat-triangle", "--group", "A3", "--x", "s1^3", "--y", "s3^3",
     "--check-distances", "--check-symmetry"):
        (0, "4ee4e7574b2ddbbb7353ac7323dfafe82aa798989e58beea92486fccc4081885"),
    ("fat-triangle", "--group", "I2(5)", "--x", "b", "--y", "a b a",
     "--check-distances", "--check-symmetry"):
        (0, "d45cb76c9bf49fc7a7c5aeb7089e6a5570cbdd882bf08b32c3a6c6ad1d5747ff"),
    _wordlen("I2(5)", "XP", "a^5", "8"):  # exact 1
        (0, "e2f3934d917e41bdf28e76bf3575255e0e6ada522a51661107ada61468d41179"),
    _wordlen("I2(5)", "XP", "a b", "6"):  # exact 2
        (0, "d6fee5bdce5506edf0c1e9fc01ae77d44ba52f1cfe93791f8ae30afe1e4089bb"),
    _wordlen("I2(5)", "XP", "a b a b", "2"):  # upper 4
        (0, "a005046cb322ef4c18da084f36194897ac6b8c81a0c235eda5d405f50522e0f0"),
    _wordlen("A2", "Simples", "a a a", "3"):  # exact 3
        (0, "01f9740a476842799ee84ed786aeb0b10c8e9c44c2e602a4bc2c8dee54addad4"),
    # the two Simples lines below were re-recorded when the simples' word
    # length became the closed form max(sup, 0) - min(inf, 0): the search in
    # the box had answered "upper 3" and "unknown" (exit 3), which recorded
    # what it could not prove, not the length
    _wordlen("A2", "Simples", "a a a", "2"):  # exact 3
        (0, "8092e4dc4dd268ca3c4476ea329f86291e48671e3bcc244fb7d71b3fad359b36"),
    _wordlen("A2", "Simples", "a a a a", "4"):  # exact 4
        (0, "b374815ae061330084f3353dd625cffe108a2b852bf71ee666010d13ad1904e1"),
    _wordlen("I2(5)", "Simples", "a^9", "3"):  # exact 9
        (0, "a33b07b25ee77771590fcf2c24cf8671c864fc2888eaecd662625dcaf86e8bdc"),
    _wordlen("I2(5)", "XP", "a b a^-1 b^3 a^2", "2"):  # unknown
        (3, "4071a04bde543167a43d9a73e3ee2f15afe12f94e0f0a06c1cd4e09a9b97d949"),
    # kernel: normal forms, products and inverses of long words, exponents
    # up to +-3; in A1 the generator is D itself and w0 s^-1 is the identity
    ("nf", "--group", "A1", "--word",
     "s1^-2 s1^-2 s1^3 s1^2 s1^3 s1^-1 s1^2 s1^-1 s1^2 s1^3 s1^3 s1^3 s1^2 "
     "s1 s1^-1 s1 s1^3 s1^-1 s1^-1 s1^-2 s1"):
        (0, "bbf21c35bf90efbc71449cc1333d316d7656abf5c49427b2e0fabb36a87ee1db"),
    ("nf", "--group", "A5", "--word",
     "s4^-1 s5^-2 s4^-2 s2^-3 s2^-3 s3^2 s3^2 s4^2 s1^-1 s5^-2 s2 s3^-2 "
     "s2^-1 s4^2 s2^-1 s4^2 s3^-1 s4^-2 s2^-1 s2^2 s1^-3 s2^-3 s2 s2^-1"):
        (0, "5ca6e4f2d4f84e20c72c9e5f19035a4b9197fbd448c6b0935d37f8355c50e3e7"),
    ("nf", "--group", "H3", "--word",
     "s1^-3 s1^-1 s1^3 s2^2 s2 s3 s3 s1^-3 s2^-1 s2^-2 s3^3 s3^-1 s3^-3 "
     "s2^-2 s1 s1^2 s1^-1 s2^3 s1^2 s3^2 s2^3 s3^3"):
        (0, "f40b2a77f18e75b134fed7e926fbc1b86481e89a7e22bade302f3f9bb53b69d3"),
    ("mul", "--group", "D5", "--left",
     "s1^-3 s2^-3 s5^-2 s2^3 s5^-3 s5^-2 s2 s5^3 s2^-2 s1^-2 s5^-3 s5^2 "
     "s5^3 s1^2 s1^2 s2^2 s3^-3 s1^-1 s1^-2 s1^-3", "--right",
     "s5^3 s5^3 s2^2 s2^3 s2 s2 s3^-1 s4^3 s4^3 s2 s5 s4^2 s2^-2 s2^-1 "
     "s4^-2 s2^-1 s4^3 s1^-3 s3^3 s1^-2"):
        (0, "6cdc12b5ebf23ea60eac97b2636d4adc4acc4f6a70961a107e6d0612e28d8cc6"),
    ("mul", "--group", "I2(7)", "--left",
     "b^3 a^-2 b^2 b^2 a b^-3 b^2 b^3 a^-2 a a^-2 a^-3 b^-1 b a^-1 b b^2 "
     "b^-2 a^-3 a^-1", "--right",
     "b^3 a^2 a^-3 b^-3 b^-2 a^-1 a^-2 a a^2 b a^-2 a^2 a^-2 b^2 b a^3 a^2 "
     "b^-1 b a b^-1"):
        (0, "b575784c31d0d043c55c8daa98cad0fc2f9fddef7e0422f38a0030c5ca8e1442"),
    ("inv", "--group", "F4", "--word",
     "s3^2 s2^-2 s3^-2 s4 s3^-1 s2 s1^-1 s4^3 s2^-1 s4^2 s2^3 s3^-1 s2^-3 "
     "s2 s3^-1 s2^3 s4^3 s3^-2 s4^-1 s1^2 s4^3 s1^3"):
        (0, "6a2aea994d3b60f2fa9483e8f32d1bd94ad6ecb119d17f385e58fb5012070951"),
    ("inv", "--group", "A1", "--word",
     "s1^-3 s1^2 s1^-2 s1^2 s1^-3 s1^3 s1 s1^-2 s1^-1 s1 s1^-3 s1^-2 s1^2 "
     "s1^-2 s1^-2 s1^3 s1^3 s1^3 s1^-2 s1"):
        (0, "7238a23fa4fc8b49117af731665f7eae1b3693bf461330f15ae69e8536c72149"),
}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(GRAPH_EXPORTS), ids=" ".join)
def test_graph_export_digest(argv, tmp_path):
    out = tmp_path / "graph.json"
    code, _ = _run(argv + ("--out", str(out)))
    assert code == 0
    assert _sha(out.read_bytes()) == GRAPH_EXPORTS[argv]


@pytest.mark.parametrize("argv", list(PRINTED), ids=" ".join)
def test_printed_digest(argv):
    code, text = _run(argv)
    assert (code, _sha(text.encode())) == PRINTED[argv]
