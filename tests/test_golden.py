"""The CLI's exit code and stdout on a fixed list of argvs, pinned by digest.

Each digest is the sha256 of the exit code, a newline and stdout, all
of it UTF-8.  The argvs cover every subcommand, both output formats,
the probes, the oracle at k = 1, 2 and 3, and every fault kind, and
take under a second in all.  A change that alters one of these
outputs fails here; a new digest is a change of output and is recorded
as one.
"""
import hashlib

import pytest

from scrollres.cli import main

GOLDEN = [
    (["resolve", "--scroll", "4,5", "--steps", "5"],
     "73187fc93c022c8ca97cab3947e935865592e7411e35e0fd462f98bb27e58537"),
    (["resolve", "--scroll", "5,4", "--steps", "4", "--format", "text"],
     "5626b01c26439cecf37fbcc9e23a9b3eec69debd4726dc2e972b4b14603d4a04"),
    (["resolve", "--scroll", "2,2", "--steps", "60", "--format", "text"],
     "5d02d0522a1f10c409e4c310cd78d511c8f3287ce84ec853626945055fcbfc1c"),
    (["verify", "--scroll", "4,5", "--steps", "5", "--modulus", "31991", "--seed", "7"],
     "bfc06a92a03cb513897308cc041d1e86d4540fd199f7df4827d9eeb98185470c"),
    (["verify", "--scroll", "5,4", "--steps", "6", "--checks", "complex,minimal,minors",
      "--seed", "11"],
     "c0d4229e249b9e98ea3ccfc7d3791f77e2e4e23637393cd3925dafde72bcd764"),
    (["verify", "--scroll", "3,3", "--steps", "4", "--checks", "ranks,groebner,exact",
      "--modulus", "101"],
     "76ab82cb00a375ac6a045aa28ec0bfdfdfaef1697582a163783d5549c52905a8"),
    (["verify", "--scroll", "4,3", "--steps", "4", "--checks", "complex,minimal,exact",
      "--seed", "3", "--inject-fault", "sign_flip"],
     "4abcdb5aacb909225f40052e4725c6790b163c5e4a566a9d4988a18f8d136de3"),
    (["verify", "--scroll", "4,3", "--steps", "4", "--checks", "complex,minimal,exact",
      "--seed", "3", "--inject-fault", "variable_swap"],
     "0effd49e4906e57fc56eba7232c4c6b0a77677144c452517378377c4a0afd8bb"),
    (["verify", "--scroll", "4,3", "--steps", "4", "--checks", "complex,minimal,exact",
      "--seed", "3", "--inject-fault", "unit_insert"],
     "f23a2264f5ee1327deee71b2a4200344468c7166df0c3d4572edf5e1ba304f89"),
    (["verify", "--scroll", "2,2", "--steps", "4", "--checks", "complex,minimal,exact",
      "--seed", "3", "--inject-fault", "sign_flip"],
     "1fcc65e7ab923cf14b80fe2a7c9ff3ae9ef7a487f0a0d3501a81ae10c0cb3e66"),
    (["verify", "--scroll", "2,2", "--steps", "4", "--checks", "complex,minimal,exact",
      "--seed", "3", "--inject-fault", "variable_swap"],
     "4c65d638b741bd3f38b1ed21686d596e141c4f5c722e50ac89694f8e353d1961"),
    (["verify", "--scroll", "2,2", "--steps", "4", "--checks", "complex,minimal,exact",
      "--seed", "3", "--inject-fault", "unit_insert"],
     "ed4f6ae87b8ff1f9360c573df8b441091dbc28f2db84af98a29bd7084f8bd680"),
    (["oracle", "--compare", "--imax", "4", "--scroll", "6"],
     "6290cdfa6811c14fe56d173ea87593bcfcf642a0bd418eb694ed7bf3562dddc0"),
    (["oracle", "--compare", "--imax", "4", "--scroll", "3,3"],
     "bf2224114e90cb03c2738519b54585505f163d74e4bb562a544c18835bd7a18b"),
    (["oracle", "--compare", "--imax", "4", "--scroll", "2,2,2"],
     "c8367033d7b2ba6a8d3f0dfd304b9b0a80e7232e3cf870366a1b1b4d2d598c35"),
    (["oracle", "--imax", "3", "--scroll", "3,4", "--modulus", "2"],
     "792b1cf6f592cbed331c6c63834c02b2784328f2a401d25aa5c635f6d93c372b"),
    (["betti", "--scroll", "3,3", "--max", "12"],
     "96d784e87d03211ec87859350637113e3f51bc9ec6d33816d537ccd8550143d6"),
    (["betti", "--scroll", "2,2,3", "--max", "8", "--format", "json"],
     "4554ea0fda8f34d83bb19862d195e470a1a410fb7a24496dce7ec90d241cbdd4"),
    (["hilbert", "--scroll", "4,3", "--terms", "10"],
     "d284e2343f2cab7aa68cc206fc33be7e32bbe1e7d568bf93119501a77a87bf03"),
    (["hilbert", "--scroll", "2,3,4", "--terms", "6", "--format", "json"],
     "964101cd66018156250f6b01d9346c60cc654bd017ef1aadbf1058dc2e466b4b"),
    (["faces", "--scroll", "4,3"],
     "04b9736cade3eaa360b42aafd10eeef015da7396a6c5434cab86ebfad6fe5259"),
    (["faces", "--scroll", "2,2,3", "--format", "json"],
     "cb740ff564dbb636ee8110acbc6fbdd5f867e25fe47f68d4cc7862168ba7675e"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_output_matches_its_pinned_digest(capsys, argv, digest):
    rc = main(argv)
    captured = capsys.readouterr()
    assert hashlib.sha256(f"{rc}\n{captured.out}".encode()).hexdigest() == digest
