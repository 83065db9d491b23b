import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter

import pytest

from scrollres.checks import MAX_N
from scrollres.cli import _printable_betti, main
from scrollres.linalg import MAX_HELD_ENTRIES
from scrollres.resolution import field_resolution
from scrollres.scrolls import build_scroll
from scrollres.series import betti


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_betti_text_output(capsys):
    rc, out = run(capsys, ["betti", "--scroll", "3,3", "--max", "4"])
    assert rc == 0
    assert out.strip() == "1 6 21 64 192"


def test_betti_json_strings(capsys):
    rc, out = run(capsys, ["betti", "--scroll", "3,3", "--max", "3",
                           "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["betti"] == ["1", "6", "21", "64"]


def test_faces_output(capsys):
    rc, out = run(capsys, ["faces", "--scroll", "4,3"])
    assert rc == 0
    assert out.split() == ["1", "7", "11", "5"]


def test_hilbert_output(capsys):
    rc, out = run(capsys, ["hilbert", "--scroll", "3,3", "--terms", "4"])
    assert rc == 0
    assert out.split() == ["1", "6", "15", "28", "45"]
    rc, out = run(capsys, ["hilbert", "--scroll", "3,3", "--terms", "4",
                           "--format", "json"])
    obj = json.loads(out)
    assert obj["hilbert"]["num"] == ["1", "3"]
    assert obj["f_vector"] == ["1", "6", "9", "4"]


def test_resolve_json_shape_chain(capsys):
    rc, out = run(capsys, ["resolve", "--scroll", "2,2", "--steps", "3"])
    assert rc == 0
    obj = json.loads(out)
    shapes = [(s["rows"], s["cols"]) for s in obj["steps"]]
    assert shapes == [(1, 4), (4, 7), (7, 8)]
    assert obj["ranks"] == ["1", "4", "7", "8"]


def test_resolve_text_format(capsys):
    rc, out = run(capsys, ["resolve", "--scroll", "2,2", "--steps", "1",
                           "--format", "text"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# step 1: 1 x 4"
    assert lines[1] == "0 0 x1"


def test_resolve_requires_two_blocks(capsys):
    rc = main(["resolve", "--scroll", "2,2,2"])
    assert rc == 2


def test_bad_scroll_is_usage_error(capsys):
    for argv in (["betti", "--scroll", "1,3"],
                 ["betti", "--scroll", "oops"],
                 ["frobnicate", "--scroll", "3,3"],
                 ["betti", "--scroll", "3,3", "--max", "-1"],
                 ["hilbert", "--scroll", "3,3", "--terms", "-1"],
                 ["hilbert", "--scroll", "3,3", "--terms", "-2"],
                 ["betti", "--scroll", "3,,3"],
                 ["verify", "--scroll", "3,3", "--format", "text"],
                 ["oracle", "--scroll", "3,3", "--format", "text"],
                 ["verify", "--scroll", "3,3", "--checks", ","],
                 ["verify", "--scroll", "3,3", "--checks", "exact,exact"],
                 ["resolve", "--scroll", "4,5", "--steps", "9"],
                 ["verify", "--scroll", "4,5", "--steps", "9"]):
        rc, out = run(capsys, argv)
        assert (rc, out) == (2, ""), argv


def test_memory_error_is_usage_error(capsys, monkeypatch):
    import scrollres.cli as cli

    for exc in (MemoryError(), MemoryError("Unable to allocate 2.75 GiB")):
        def boom(args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "cmd_resolve", boom)
        assert main(["resolve", "--scroll", "3,3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def refuse_builds(monkeypatch):
    """Make building a resolution in the CLI fail the test."""
    from scrollres import resolution

    def boom(spec, steps):
        raise AssertionError("the resolution was built")
    monkeypatch.setattr(resolution, "field_resolution", boom)


def test_verify_refuses_modulus_that_is_not_a_usable_prime(capsys, monkeypatch):
    refuse_builds(monkeypatch)
    for checks in ("complex", "minors", "complex,minimal,exact"):
        for modulus in ("4", "2", "1", "-7", "32004", str(2**26 + 15)):
            argv = ["verify", "--scroll", "3,3", "--steps", "3", "--checks", checks,
                    "--modulus", modulus]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: modulus {modulus} is not a prime p with "
                                    "3 <= p < 2**26\n")


def test_verify_refuses_trials_below_one(capsys, monkeypatch):
    refuse_builds(monkeypatch)
    for checks in ("complex", "minimal,minors", "exact"):
        for trials in ("-3", "0"):
            argv = ["verify", "--scroll", "3,3", "--steps", "3", "--checks", checks,
                    "--trials", trials]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --trials must be at least 1, got {trials}\n"


def test_verify_refuses_exact_check_with_nothing_to_check(capsys, monkeypatch):
    for steps in ("1", "0"):
        with monkeypatch.context() as m:
            refuse_builds(m)
            argv = ["verify", "--scroll", "3,3", "--steps", steps,
                    "--checks", "exact"]
            assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --checks exact needs --steps of at least 2: "
                                "exactness at step i uses steps i and i+1, "
                                f"got {steps}\n")
    rc, out = run(capsys, ["verify", "--scroll", "3,3", "--steps", "2",
                           "--checks", "exact"])
    assert rc == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["exact@1"]


def test_verify_passes_and_reports(capsys):
    rc, out = run(capsys, ["verify", "--scroll", "3,3", "--steps", "3",
                           "--checks", "complex,minimal,exact",
                           "--modulus", "32003", "--trials", "3",
                           "--seed", "42"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["seed"] == 42
    names = [c["name"] for c in obj["checks"]]
    assert "complex" in names and "minimal" in names and "exact@1" in names
    assert all(c["verdict"] == "pass" for c in obj["checks"])


def test_verify_runs_every_check(capsys):
    rc, out = run(capsys, ["verify", "--scroll", "3,3", "--steps", "3",
                           "--checks", "complex,minimal,exact,minors,ranks,groebner"])
    assert rc == 0
    reports = json.loads(out)["checks"]
    assert all(r["verdict"] == "pass" for r in reports)
    counts = {}
    for r in reports:
        kind = r["name"].split("@")[0].split(":")[0]
        counts[kind] = counts.get(kind, 0) + 1
    # exactness at steps 1 and 2; 7 minor targets and 8 rank probes on n = 6
    assert counts == {"complex": 1, "minimal": 1, "exact": 2, "minor": 42, "rank": 8,
                      "groebner": 1}


def test_verify_detects_injected_fault(capsys):
    for kind in ("sign_flip", "variable_swap", "unit_insert"):
        rc, out = run(capsys, ["verify", "--scroll", "3,3", "--steps", "4",
                               "--checks", "complex,minimal,exact",
                               "--seed", "7", "--inject-fault", kind])
        assert rc == 1, kind
        obj = json.loads(out)
        assert any(c["verdict"] == "fail" for c in obj["checks"])


def test_verify_unknown_check_is_usage_error(capsys):
    rc = main(["verify", "--scroll", "3,3", "--checks", "complex,nope"])
    capsys.readouterr()
    assert rc == 2


def test_oracle_compare(capsys):
    rc, out = run(capsys, ["oracle", "--scroll", "2,2", "--imax", "3",
                           "--modulus", "32003", "--compare"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["diagonal"] == ["1", "4", "7", "8"]
    entries = obj["betti_table"]["entries"]
    assert {"i": 1, "j": 1, "value": "4"} in entries
    # (2) is a polynomial ring: the oracle stops at its vanishing kernel
    rc, out = run(capsys, ["oracle", "--compare", "--scroll", "2", "--imax", "4"])
    assert rc == 0
    assert json.loads(out)["diagonal"] == ["1", "2", "1", "0", "0"]


def test_oracle_plain_table(capsys):
    rc, out = run(capsys, ["oracle", "--scroll", "2,3", "--imax", "2",
                           "--modulus", "101"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["modulus"] == 101


def test_json_output_deterministic(capsys):
    argv = ["verify", "--scroll", "2,2", "--steps", "3",
            "--checks", "complex,exact", "--seed", "11", "--trials", "2"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2

    argv = ["resolve", "--scroll", "3,3", "--steps", "3"]
    _, a = run(capsys, argv)
    _, b = run(capsys, argv)
    assert a == b


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "res.json"
    rc = main(["resolve", "--scroll", "2,2", "--steps", "2", "--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    obj = json.loads(path.read_text())
    assert obj["spec"] == {"blocks": [2, 2]}


def test_text_output_honours_out(tmp_path, capsys):
    cases = {"betti": (["--scroll", "3,3", "--max", "3"], "1 6 21 64\n"),
             "hilbert": (["--scroll", "3,3", "--terms", "4"], "1 6 15 28 45\n"),
             "faces": (["--scroll", "4,3"], "1 7 11 5\n")}
    for cmd, (args, text) in cases.items():
        assert run(capsys, [cmd] + args) == (0, text), cmd
        path = tmp_path / f"{cmd}.txt"
        assert run(capsys, [cmd] + args + ["--out", str(path)]) == (0, ""), cmd
        assert path.read_bytes() == text.encode(), cmd


def test_resolve_streams_reference_bytes_to_stdout_and_file(tmp_path, capsys):
    res = field_resolution(build_scroll([4, 3]), 4)
    lines = []
    for idx, step in enumerate(res.steps, start=1):
        lines.append(f"# step {idx}: {step.rows} x {step.cols}")
        lines.extend(step.to_text_lines())
    want = {"json": json.dumps(res.to_json_obj(), sort_keys=True, indent=2) + "\n",
            "text": "\n".join(lines) + "\n"}
    for fmt, text in want.items():
        argv = ["resolve", "--scroll", "4,3", "--steps", "4", "--format", fmt]
        rc, out = run(capsys, argv)
        assert (rc, out) == (0, text), fmt
        path = tmp_path / f"res.{fmt}"
        rc, out = run(capsys, argv + ["--out", str(path)])
        assert (rc, out) == (0, "")
        assert path.read_text() == text


def test_refused_resolve_leaves_no_file(tmp_path, capsys):
    path = tmp_path / "F"
    rc = main(["resolve", "--scroll", "4,5", "--steps", "9", "--out", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not path.exists()


def test_steps_beyond_the_bound_are_refused(tmp_path, capsys, monkeypatch):
    """Blocks (2,2) have rank 8 at every step from 3 on: only the step bound stops them."""
    from scrollres import resolution

    def boom(spec, i):
        raise AssertionError("a step was built")
    monkeypatch.setattr(resolution, "_cone_step", boom)
    path = tmp_path / "F"
    steps = resolution.MAX_STEPS + 1
    for argv in (["resolve", "--scroll", "2,2", "--steps", str(steps), "--out", str(path)],
                 ["verify", "--scroll", "2,2", "--steps", str(steps),
                  "--checks", "complex,minimal"]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, ""), argv
        assert captured.err == (f"error: resource guard: {steps} steps requested, "
                                f"above the supported {resolution.MAX_STEPS}\n"), argv
        assert not path.exists()
    assert resolution.MAX_STEPS >= 3000


def test_betti_numbers_too_long_to_print_are_refused_first(capsys, monkeypatch):
    from scrollres import series

    def boom(spec, order):
        raise AssertionError("the Poincare series was computed")
    monkeypatch.setattr(series, "poincare_coeffs", boom)
    limit = sys.get_int_max_str_digits()
    for argv, index in ((["betti", "--scroll", "3,3", "--max", "20000"], "--max 20000"),
                        (["betti", "--scroll", "3,3", "--max", "20000", "--format", "json"],
                         "--max 20000"),
                        (["hilbert", "--scroll", "3,3", "--terms", "10000", "--format", "json"],
                         "--terms 10000")):
        rc = main(argv)
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, ""), argv
        assert captured.err == (f"error: {index}: beta_{index.split()[1]} has more than "
                                f"{limit} digits, the integer-to-string limit of this Python\n")
    rc, out = run(capsys, ["betti", "--scroll", "3,3", "--max", "8000"])
    assert rc == 0 and len(out.split()) == 8001


def test_indices_far_past_the_digit_limit_are_refused_at_once(capsys):
    limit = sys.get_int_max_str_digits()
    for argv, index in ((["betti", "--scroll", "4,5", "--max", "100000000"], "--max 100000000"),
                        (["hilbert", "--scroll", "4,5", "--format", "json",
                          "--terms", "100000000"], "--terms 100000000")):
        start = time.perf_counter()
        rc = main(argv)
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, ""), argv
        assert captured.err == (f"error: {index}: beta_100000000 has more than "
                                f"{limit} digits, the integer-to-string limit of this Python\n")
    # near the cut-off the bound beta_i >= q**i leaves the verdict to the exact comparison
    for blocks, q in (((4, 5), 6), ((2, 3), 2), ((2, 2), 1)):
        spec = build_scroll(blocks)
        cut = int(limit / math.log10(q)) if q > 1 else 100
        for i in range(cut - 10, cut + 11):
            too_long = betti(spec, i) >= 10**limit
            try:
                _printable_betti(spec, i, "--max")
            except ValueError:
                assert too_long, (blocks, i)
            else:
                assert not too_long, (blocks, i)


def test_indices_above_the_bound_are_refused_at_once(capsys):
    """Where beta_i never outgrows the digit limit, only MAX_INDEX stops the index."""
    from scrollres.cli import MAX_INDEX

    for argv, index in ((["betti", "--scroll", "2,2", "--max", "100000000"], "--max"),
                        (["betti", "--scroll", "3", "--format", "json", "--max", "100000000"],
                         "--max"),
                        (["hilbert", "--scroll", "3,3", "--terms", "100000000"], "--terms"),
                        (["hilbert", "--scroll", "2,2", "--format", "json",
                          "--terms", str(MAX_INDEX + 1)], "--terms")):
        start = time.perf_counter()
        rc = main(argv)
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, ""), argv
        assert captured.err == (f"error: resource guard: {index} {argv[-1]} requested, "
                                f"above the supported {MAX_INDEX}\n"), argv
    assert MAX_INDEX == 10**6


def run_capped(argv):
    """Exit code, stdout, stderr and wall time of a cold CLI run under a 3 GiB address-space cap."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "scrollres.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize("argv, error", [
    (["--scroll", "24,24", "--steps", "2", "--checks", "ranks"],
     "resource guard: evaluating a 93150x4191750 F_p block holds more than the supported "
     f"{MAX_HELD_ENTRIES} entries"),
    (["--scroll", "40,40", "--steps", "2", "--checks", "ranks"],
     "resource guard: evaluating a 462462x35609574 F_p block holds more than the supported "
     f"{MAX_HELD_ENTRIES} entries"),
    (["--scroll", "24,24", "--steps", "2", "--checks", "minors,groebner"],
     f"enumeration guard: --checks groebner needs n <= {MAX_N['groebner']}, got n = 48"),
    (["--scroll", "25,24", "--steps", "2"],
     f"enumeration guard: --checks minors needs n <= {MAX_N['minors']}, got n = 49"),
], ids=["ranks", "ranks-40-40", "groebner", "minors"])
def test_guards_refuse_before_the_work(tmp_path, argv, error):
    """The evaluation bound before the first probe, and the bounds of
    groebner and minors before the resolution is built."""
    path = tmp_path / "F"
    rc, out, err, seconds = run_capped(["verify", *argv, "--out", str(path)])
    assert (rc, out, err) == (2, "", f"error: {error}\n")
    assert seconds < 3
    assert not path.exists()


def test_wide_scroll_resolves_under_the_cap(tmp_path):
    """The ring of (400,400) is built from its grading, without the
    C(798, 2) = 318,003 column pairs of its minors."""
    path = tmp_path / "F"
    rc, out, err, _ = run_capped(["resolve", "--scroll", "400,400", "--steps", "1",
                                  "--out", str(path)])
    assert (rc, out, err) == (0, "", "")
    assert json.loads(path.read_text())["ranks"] == ["1", "800"]


def test_exact_check_on_a_wide_scroll_passes_under_the_cap(tmp_path):
    """Step 3 of (30,30) has 3423x195112 cells but few entries, so its
    probes run within the entries bound."""
    path = tmp_path / "F"
    rc, out, err, _ = run_capped(["verify", "--scroll", "30,30", "--steps", "3",
                                  "--checks", "exact", "--out", str(path)])
    assert (rc, out, err) == (0, "", "")
    reports = json.loads(path.read_text())["checks"]
    assert [r["name"] for r in reports] == ["exact@1", "exact@2"]
    assert all(r["verdict"] == "pass" for r in reports)


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "F")
    for argv in (["betti", "--scroll", "2,2", "--max", "2", "--format", "json"],
                 ["hilbert", "--scroll", "2,2", "--format", "json"],
                 ["faces", "--scroll", "2,2", "--format", "json"],
                 ["resolve", "--scroll", "2,2", "--steps", "2"],
                 ["resolve", "--scroll", "2,2", "--steps", "2", "--format", "text"],
                 ["verify", "--scroll", "2,2", "--steps", "2", "--checks", "complex"],
                 ["oracle", "--scroll", "2,2", "--imax", "2"]):
        for out in (missing, str(tmp_path)):  # no parent, a directory
            rc = main(argv + ["--out", out])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (2, ""), argv
            assert captured.err.startswith("error: "), argv
            assert captured.err.count("\n") == 1, argv
            assert not os.path.exists(missing)


def test_reader_closing_stdout_early_is_not_an_error():
    # 0.4 MB of text cannot fit in the pipe, so the writer is still
    # writing when the reader stops
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with subprocess.Popen(
            [sys.executable, "-m", "scrollres.cli", "resolve", "--scroll", "4,5",
             "--steps", "5", "--format", "text"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"# step 1: 1 x 9\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_hot_paths_do_not_materialise_a_step(tmp_path, capsys, monkeypatch, joins):
    """exact and export work on distinct blocks: no step from step 3 on has its entries listed."""
    from scrollres import resolution

    steps, walks = {}, Counter()  # id of a grid step -> its number (1-based); walks per number

    def recording(spec, n):
        res = field_resolution(spec, n)
        steps.update((id(s), k) for k, s in enumerate(res.steps, start=1) if s.blocks is not None)
        return res

    def walk(mat, r0, c0):
        if id(mat) in steps:
            walks[steps[id(mat)]] += 1
            if steps[id(mat)] > 2:
                raise AssertionError("a grid step was iterated")
        return real_walk(mat, r0, c0)

    real_walk = resolution._walk
    monkeypatch.setattr(resolution, "field_resolution", recording)
    monkeypatch.setattr(resolution, "_walk", walk)
    exact = ["verify", "--scroll", "4,5", "--steps", "6",
             "--checks", "complex,minimal,minors"]
    rc, out = run(capsys, exact)
    assert rc == 0 and json.loads(out)["checks"][0]["verdict"] == "pass"
    assert len(steps) == 5  # every step but the first is a grid
    # step 1 is a leaf, so step 1 @ step 2 is a join, which lists step 2's
    # 114 entries through its view once; minimality lists none
    assert walks == {2: 1}
    # the largest joins, over both factors, are a band of staircases @ the
    # next step's phi1 copies, which do not line up (686 entries); the cone
    # couplings come down to joins at the phi1 level, while the join of the
    # whole steps 5 and 6 would hold 195,510 entries
    assert 0 < max(joins) <= 1000
    steps.clear()
    walks.clear()
    path = tmp_path / "export.json"
    assert main(["resolve", "--scroll", "4,5", "--steps", "6", "--format", "json",
                 "--out", str(path)]) == 0
    assert len(steps) == 5 and not walks
    assert json.loads(path.read_text())["ranks"][-1] == "74088"
    with pytest.raises(AssertionError, match="iterated"):  # the guard works
        dict(recording(build_scroll([4, 5]), 3).steps[-1].entries.items())
