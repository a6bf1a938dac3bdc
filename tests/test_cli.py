import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from bosonfermion import branching, catbernstein, linalg, symrep
from bosonfermion.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    GATE_ERRORS,
    main,
    parse_module_spec,
)
from bosonfermion.config import RunConfig, parse_window

from conftest import SRC


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GENERAL_SHAPE_CUT = ("young_idempotent", "right_mult_map", "idempotent_image")


def forbid_general_shape_cut(monkeypatch):
    """Make the machinery of the Young-idempotent cut raise wherever a
    module binds it: rows and columns must be cut without it."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a Young-idempotent cut")
    for module in (symrep, branching, linalg, catbernstein):
        for name in GENERAL_SHAPE_CUT:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


class TestWindowParsing:
    def test_explicit_range(self):
        assert parse_window("-1:3") == (-1, 3)
        assert parse_window("0:0") == (0, 0)

    def test_single_integer_is_symmetric(self):
        assert parse_window("2") == (-2, 2)
        assert parse_window("-2") == (-2, 2)

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_window("1:2:3")
        with pytest.raises(ValueError):
            parse_window("a:b")


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.resolve("cat", argparse.Namespace())
        assert cfg.max_degree == 6
        assert cfg.charge_window == (-2, 2)
        assert cfg.index_window == (-4, 4)
        assert not cfg.json_output and cfg.jobs == 1

    def test_flag_overrides_default(self):
        args = argparse.Namespace(max_degree=7, charge_window="0:1",
                                  json=True, jobs=2)
        cfg = RunConfig.resolve("cat", args)
        assert cfg.max_degree == 7
        assert cfg.charge_window == (0, 1)
        assert cfg.index_window == (-4, 4)
        assert cfg.json_output
        assert cfg.jobs == 2

    def test_invariants(self):
        with pytest.raises(ValueError):
            RunConfig("cat", max_degree=0)
        with pytest.raises(ValueError):
            RunConfig("cat", jobs=0)


class TestModuleSpecs:
    def test_grammar(self):
        assert parse_module_spec("trivial:3").degree == 3
        assert parse_module_spec("S:2,1").dim == 2
        assert parse_module_spec("reg:2").dim == 2

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_module_spec("foo:3")
        with pytest.raises(ValueError):
            parse_module_spec("trivial")
        with pytest.raises(ValueError):
            parse_module_spec("S:1,2")


class TestSchurCommand:
    def test_partition_passes(self, capsys):
        code, out, _ = run(capsys, "schur", "3,1")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "s[3,1]"

    def test_empty_partition_prints_one(self, capsys):
        code, out, _ = run(capsys, "schur", "0")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "1"

    def test_non_partition_is_parse_error(self, capsys):
        code, _, err = run(capsys, "schur", "1,2")
        assert code == EXIT_PARSE_ERROR
        assert "error" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "schur", "4,4", "--max-degree", "6")
        assert code == EXIT_CAP_EXCEEDED
        assert "cap exceeded" in err


class TestCliffordCommand:
    def test_small_window_passes(self, capsys):
        code, out, _ = run(capsys, "clifford", "--max-degree", "2",
                           "--charge-window", "1", "--index-window", "2")
        assert code == EXIT_OK
        assert "clifford anticommutators" in out

    def test_sign_flip_hook_fails(self, capsys, psi_sign_flipped):
        code, _, _ = run(capsys, "clifford", "--max-degree", "2",
                         "--charge-window", "1", "--index-window", "2")
        assert code == EXIT_CHECK_FAILED

    def test_reversed_window_is_refused(self, capsys):
        # a reversed window would run no instance and pass vacuously
        for flags, named in (
                (("--charge-window=1:-1",), "charge window 1:-1"),
                (("--charge-window", "2:1"), "charge window 2:1"),
                (("--index-window", "3:-3"), "index window 3:-3")):
            code, out, err = run(capsys, "clifford", "--max-degree", "2",
                                 *flags, "--json")
            assert code == EXIT_PARSE_ERROR, flags
            assert not out and named in err, (flags, err)
        with pytest.raises(ValueError, match="index window 1:0"):
            RunConfig("cat", index_window=(1, 0))

    def test_single_point_window_passes(self, capsys):
        code, out, _ = run(capsys, "clifford", "--max-degree", "2",
                           "--charge-window", "0:0", "--index-window", "0:0",
                           "--json")
        assert code == EXIT_OK
        details = [check["details"] for rep in json.loads(out)["reports"]
                   for check in rep["checks"]]
        assert details[0]["checked"] > 0 and details[1]["vectors"] > 0


class TestCatCommand:
    def test_specht_example(self, capsys):
        code, out, _ = run(capsys, "cat", "specht", "2,1")
        assert code == EXIT_OK
        assert "categorified creation word" in out

    def test_sigma_example(self, capsys):
        code, _, _ = run(capsys, "cat", "sigma", "--module", "trivial:0")
        assert code == EXIT_OK

    def test_bb_example(self, capsys):
        code, _, _ = run(capsys, "cat", "bb", "--a", "1", "--b", "1",
                         "--module", "S:1")
        assert code == EXIT_OK

    def test_bbstar_triangle(self, capsys):
        code, _, _ = run(capsys, "cat", "bbstar", "--a", "0", "--b", "0",
                         "--module", "S:1")
        assert code == EXIT_OK

    def test_missing_partition_is_parse_error(self, capsys):
        code, _, _ = run(capsys, "cat", "specht")
        assert code == EXIT_PARSE_ERROR

    def test_bad_module_spec_is_parse_error(self, capsys):
        code, _, _ = run(capsys, "cat", "sigma", "--module", "foo:1")
        assert code == EXIT_PARSE_ERROR

    def test_degree_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "cat", "specht", "3", "--max-degree", "2")
        assert code == EXIT_CAP_EXCEEDED
        assert "cap exceeded" in err

    def test_module_degree_checked_before_build(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("module built before the degree check")

        for name in ("specht_module", "regular_module", "trivial_module"):
            monkeypatch.setattr(f"bosonfermion.cli.{name}", build)
        for argv in (("sigma", "--module", "S:5,5"),
                     ("sigma", "--module", "S:7"),
                     ("sigma", "--module", "trivial:7"),
                     ("bb", "--a", "1", "--module", "S:6"),
                     ("bbstar", "--a", "3", "--module", "S:4")):
            code, _, err = run(capsys, "cat", *argv)
            assert code == EXIT_CAP_EXCEEDED, argv
            assert "cap exceeded" in err
        code, _, _ = run(capsys, "cat", "sigma", "--module", "reg:5")
        assert code == EXIT_CAP_EXCEEDED

    def test_bb_reach_cap(self, capsys):
        code, _, _ = run(capsys, "cat", "bb", "--a", "3", "--b", "1",
                         "--module", "S:2", "--max-degree", "4")
        assert code == EXIT_CAP_EXCEEDED
        # peaks at degree 6 (a + b - 1 above the module's 4)
        code, _, _ = run(capsys, "cat", "bb", "--a", "2", "--b", "1",
                         "--module", "S:2,2", "--max-degree", "6")
        assert code == EXIT_OK

    def test_pair_modes_build_nothing_above_the_admitted_reach(
            self, capsys, monkeypatch):
        # the largest degree a request builds bounds its admission from
        # below: a (positive) cap one under it refuses the request, and a
        # cap at it admits the request unless the closed-form reach is
        # loose.  It is loose once: annihilation at charge 0 kills S^(1),
        # so nothing is built above degree 1
        built = [0]
        init = symrep.RepModule.__init__

        def record(self, degree, dim, gens, parts=None):
            init(self, degree, dim, gens, parts)
            if self.dim:
                built[0] = max(built[0], self.degree)

        monkeypatch.setattr(symrep.RepModule, "__init__", record)
        sweep = []
        for spec in ("trivial:0", "S:1"):
            for mode, flags in (("bb", ()), ("bb", ("--star",)),
                                ("bbstar", ())):
                for a in range(-3, 4):
                    for b in range(-3, 4):
                        argv = ("cat", mode, "--a", str(a), "--b", str(b),
                                "--module", spec, *flags)
                        built[0] = 0
                        code, _, _ = run(capsys, *argv, "--max-degree", "99")
                        assert code == EXIT_OK, argv
                        sweep.append((argv, built[0]))
        monkeypatch.setattr("bosonfermion.cli.run_tasks",
                            lambda descs, jobs=1: [])
        loose = []
        for argv, peak in sweep:
            if peak > 1:
                code, _, _ = run(capsys, *argv, "--max-degree", str(peak - 1))
                assert code == EXIT_CAP_EXCEEDED, (argv, peak)
            code, _, _ = run(capsys, *argv,
                             "--max-degree", str(max(peak, 1)))
            if code != EXIT_OK:
                loose.append(argv)
        assert loose == [("cat", "bbstar", "--a", "0", "--b", "-1",
                          "--module", "S:1")]

    def test_suite_keeps_only_the_entries_cat_admits_alone(
            self, capsys, monkeypatch):
        # at --max-degree 1 the five sigma and pair entries that reach
        # degree 2 leave the suite; every entry left is admitted alone
        def requests(cap):
            _, out, _ = run(capsys, "cat", "suite", "--max-degree", str(cap),
                            "--json")
            asked = set()
            for r in json.loads(out)["reports"]:
                c = r["config"]
                if "module" not in c:
                    continue
                if "a" not in c:
                    argv = ("sigma",)
                else:
                    argv = ("bb" if "star" in c else "bbstar",
                            "--a", str(c["a"]), "--b", str(c["b"]))
                    argv += ("--star",) if c.get("star") else ()
                asked.add(argv + ("--module", c["module"]))
            return asked

        kept, wider = requests(1), requests(2)
        monkeypatch.setattr("bosonfermion.cli.run_tasks",
                            lambda descs, jobs=1: [])
        assert len(kept) == 8 and len(wider - kept) == 5 and kept < wider
        for argv in sorted(wider):
            code, _, _ = run(capsys, "cat", *argv, "--max-degree", "1")
            assert code == (EXIT_OK if argv in kept else EXIT_CAP_EXCEEDED), \
                argv

    def test_unknown_flag_is_parse_error(self, capsys):
        for flag in ("--frobnicate", "--cache-dir=x", "--no-cache"):
            code = main(["cat", "specht", "2", flag])
            capsys.readouterr()
            assert code == EXIT_PARSE_ERROR, flag
        code = main(["clifford", "--inject-sign-flip"])
        capsys.readouterr()
        assert code == EXIT_PARSE_ERROR


class TestGateFailures:
    # a gate error is a failed check: one stderr line, exit 1, no traceback,
    # whether the builder ran in this process or in a worker
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("error", GATE_ERRORS,
                             ids=lambda e: e.__name__)
    def test_builder_error_exits_one_without_traceback(
            self, capfd, monkeypatch, error, jobs):
        def broken(lam):
            raise error(f"injected {error.__name__}")

        monkeypatch.setattr("bosonfermion.cli.specht_creation_check", broken)
        code = main(["cat", "specht", "2,1", "--jobs", jobs])
        out, err = capfd.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert err == f"gate failed: injected {error.__name__}\n"
        assert out == "" and "Traceback" not in err

    def test_broken_evaluation_sign_is_a_failed_check(self, capfd,
                                                      monkeypatch):
        original = catbernstein._pair_evaluation

        def flipped(outer_cell, inner_cell, a):
            blk = original(outer_cell, inner_cell, a)
            return blk.scale(-1) if outer_cell.label % 2 else blk

        monkeypatch.setattr(catbernstein, "_pair_evaluation", flipped)
        code = main(["cat", "bbstar", "--a", "0", "--b", "0",
                     "--module", "S:2"])
        out, err = capfd.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert err.startswith("gate failed: evaluation is not a chain map")
        assert out == "" and "Traceback" not in err


class TestDeterminismAndCache:
    def test_identical_config_byte_identical_json(self, capsys):
        _, out1, _ = run(capsys, "cat", "specht", "2,1", "--json")
        _, out2, _ = run(capsys, "cat", "specht", "2,1", "--json")
        assert out1 == out2

    # sha256 of the reports at the commit that introduced this pin; a
    # refactor must keep them byte-identical.
    @pytest.mark.parametrize("argv,digest", [
        (("cat", "suite", "--json"),
         "ac1c917ee557c9df9d509c3ae54a4575f1c490979775d4511c1f4ffce5c1d845"),
        (("cat", "specht", "3,2", "--json"),
         "ba582254481fe8e30b340ee63448db02b0728a8295e31586661a1387125db75c"),
        (("cat", "sigma", "--module", "S:2,1", "--json"),
         "5ba1a106511adf3e9d922cb95751f81fe4e27d2a2fd8ef3b26b53835798b0264"),
        (("clifford", "--json"),
         "095a1091a974d312fb715aedc10cbb742c3cb60eabe85b84add2718fe6eb400a"),
        (("cat", "sigma", "--module", "trivial:4", "--json"),
         "96a8646311630651704adfc414541ecbc1ab54c477541e8614884002138d5f63"),
        (("cat", "sigma", "--module", "S:2,2", "--json"),
         "83e55d76a7bcebc945750e8749baf570d2ca544f689b6a288faedf11447d8bae"),
        (("cat", "sigma", "--module", "S:3,1", "--json"),
         "445f65c069816385cc4ee3cfdab107f41642002205d88810eed3ba7dc0e2cfd6"),
        (("cat", "sigma", "--module", "trivial:5", "--json"),
         "7097c6d4a5170e271b6312016526423f697a2856d0ce76d50521e0d9252af132"),
        (("cat", "sigma", "--module", "S:3,2", "--json"),
         "163af4f1ebacc783657e866ff7ecb8c575b395e83c03f092f2ecee7f074d266f"),
        (("cat", "bb", "--a", "2", "--b", "1", "--module", "S:2,1", "--json"),
         "ebfbfbd0338496bc31a555ba193d84c0dd8318b93f06c67a1db93f75cb1b571a"),
        (("cat", "bb", "--a", "1", "--b", "1", "--module", "S:2,1", "--json"),
         "294072d06d1285710fb079bc1aa8a50efabb47cc9e49949f4e668fe0d00454b8"),
        (("cat", "bb", "--a", "2", "--b", "1", "--star", "--module", "S:2,1",
          "--json"),
         "6e06436c0be78999ac48445aa5000bffafa6cac0921e21e5646c1706e8d7b6e5"),
        (("cat", "bbstar", "--a", "2", "--b", "1", "--module", "S:2,1",
          "--json"),
         "8b8fd9e02b8a9210d0a9d6eb2d9440a1be66390163b3dfb10b1b7eaf374b85f7"),
        (("cat", "bbstar", "--a", "1", "--b", "1", "--module", "S:2,1",
          "--json"),
         "3f4aadf0605597bcc174669e9ae4ebc6ed98f2eee83ea6174e5654c5fe4a080e"),
        (("cat", "sigma", "--module", "trivial:6", "--json"),
         "d3d9144cde369f50e8fe04550df4712b03290818a305adec7fef76d491bb9c29"),
        (("cat", "sigma", "--module", "reg:3", "--json"),
         "e1198ad89d06423c9416f13ae4bb74e4485a6e41aa36493161f5ebce67101a6a"),
        (("cat", "sigma", "--module", "S:2,1,1", "--json"),
         "83d363b350b3eb1ad114280ec888ee124b1d5de38c957f34417d76422598fb0e"),
        (("cat", "specht", "4,3", "--max-degree", "8", "--json"),
         "e159acb1d6773131d11ba6368da7b4884a2311975c3505b88764ad9f5ab586e1"),
        (("cat", "specht", "3,2,2", "--max-degree", "8", "--json"),
         "afe2132b6ac80d2c9174d17071ceee1b6d6526770ccb7185c7e0f449029a4042"),
        (("cat", "bbstar", "--a", "2", "--b", "2", "--module", "S:2,2",
          "--max-degree", "8", "--json"),
         "9168936ce9f4712f37dc98b72ae2b53df29de67b59bc8ce0d02a075e93775df5"),
        (("cat", "bb", "--a", "2", "--b", "1", "--module", "S:2,2",
          "--max-degree", "8", "--json"),
         "449521e6555022c56567ad76381fe77aeb64d1a9897a28ec08cb7846bea86bf8"),
        (("cat", "specht", "4,4", "--max-degree", "8", "--json"),
         "b78eef4dcad5d2c81f53b13c75cb6a8f7faf789344c30b36ad909f4e891e9278"),
        (("cat", "specht", "3,3,2", "--max-degree", "8", "--json"),
         "1666d4048dd965b1666be8a09698893eee9d30231e5707c9e4bbda07f70d6623"),
        # pinned after the evaluation-sign fix: before it, both runs
        # stopped at a ChainComplexError
        (("cat", "bbstar", "--a", "0", "--b", "0", "--module", "trivial:3",
          "--max-degree", "8", "--json"),
         "a95ad9496bcbea6eb02461e31d67959ac1a285ce438ec09f91ce89e946922db2"),
        (("cat", "bbstar", "--a", "0", "--b", "0", "--module", "S:3,1",
          "--max-degree", "8", "--json"),
         "394b1c0fd9f743fcf81c7ea364426c372d72462b2749526f5c6b5c8cf6b60271"),
        # a column-heavy degree-7 word: its column P cables compose as
        # Kronecker products of their orbit tables
        (("cat", "specht", "2,2,2,1", "--max-degree", "8", "--json"),
         "d6e70c6b689fa34f43125c3224300d539f74c19d96431c5b26373be2e73e539d"),
        # a degree-10 word: its largest plain word has 3,628,800 dimensions,
        # its largest cell on the (S, u) basis 252
        (("cat", "specht", "5,5", "--max-degree", "10", "--json"),
         "4d2cebd20f28e3a325ec944fe7c65d20b7639c0f6db17ff568de0d68667735a4"),
        # equal-charge mixed relations, hashed on the plain-word evaluation
        # route the closed form replaced
        (("cat", "bbstar", "--a", "1", "--b", "1", "--module", "S:3,2",
          "--json"),
         "4e838a9cfb1b1c42c5a83788015a32ea059a76dcdf157496f31f47672b5f1444"),
        (("cat", "bbstar", "--a", "3", "--b", "3", "--module", "S:2,2,1",
          "--max-degree", "8", "--json"),
         "55c3c4743ebdb471477141d570ed4ceb6b1c2bb11edb5eb9a16adb7544d49f45"),
        # the degree-8 window the benchmark's correspondence workload runs
        (("clifford", "--json", "--max-degree", "8", "--charge-window=-2:2",
          "--index-window=-4:4"),
         "16a47c84bf6ef2f59c16f210bd31f599355ea95202d4b5452245bd6c4c343bb2"),
        # the degree-10 frontier, hashed while the degree-0 character was
        # still taken from the homology module with its induced action
        (("cat", "specht", "4,3,2,1", "--max-degree", "10", "--json"),
         "60d8b2ee4149ea9b91098cce51ff5465a86e3e4586df76c5ad99f280fa51cf0c"),
        (("cat", "specht", "4,4,2", "--max-degree", "10", "--json"),
         "ca0f95285141215701700acb15d6bfd9ecf78bd052f7a6f2fde022058003e61f"),
        # hashed before the projector complexes were certified on their cells
        (("cat", "sigma", "--module", "S:3,1,1", "--json"),
         "1bcc98961c2f390aa6fd1ba12c9e3cec02b94e7d9666c4650bc5a1ef0b389a60"),
        (("cat", "sigma", "--module", "S:2,2,1", "--json"),
         "67e7a89911228d8e08f8ff7807e2bc3dc0b4f538ab9dd366f8d40cb1d21d0e9f"),
        # hashed while the projector complexes were still gated on their
        # assembled caps and lifts
        (("cat", "sigma", "--module", "S:4,2", "--json"),
         "322256e34cc0d800336c24e247e8051e21b46c37e1de6650f3615da7d1a64292"),
    ])
    def test_pinned_report_digests(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (("cat", "suite", "--json"),
         "ac1c917ee557c9df9d509c3ae54a4575f1c490979775d4511c1f4ffce5c1d845"),
        (("cat", "specht", "3,2", "--json"),
         "ba582254481fe8e30b340ee63448db02b0728a8295e31586661a1387125db75c"),
    ])
    def test_pinned_reports_cut_no_general_shape(self, capsys, monkeypatch,
                                                 argv, digest):
        forbid_general_shape_cut(monkeypatch)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_optimized_python_prints_the_pinned_report(self):
        # python -O strips assert statements; the report must not change
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        for argv, digest in [
            (("cat", "specht", "3,2", "--json"),
             "ba582254481fe8e30b340ee63448db02b0728a8295e31586661a1387125db75c"),
            (("clifford", "--json"),
             "095a1091a974d312fb715aedc10cbb742c3cb60eabe85b84add2718fe6eb400a"),
            (("cat", "sigma", "--module", "S:2,1", "--json"),
             "5ba1a106511adf3e9d922cb95751f81fe4e27d2a2fd8ef3b26b53835798b0264"),
        ]:
            out = subprocess.run(
                [sys.executable, "-O", "-m", "bosonfermion.cli", *argv],
                env=env, capture_output=True, check=True)
            assert hashlib.sha256(out.stdout).hexdigest() == digest, argv

    def test_worker_count_does_not_change_output(self, capsys):
        args = ["cat", "suite", "--max-degree", "2", "--json"]
        _, serial, _ = run(capsys, *args, "--jobs", "1")
        _, parallel, _ = run(capsys, *args, "--jobs", "3")
        assert serial == parallel

    def test_worker_pool_has_no_more_processes_than_tasks(
            self, capsys, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            SerialPool)
        code, _, _ = run(capsys, "cat", "specht", "2,1", "--jobs", "8")
        assert code == EXIT_OK
        assert sizes == [2]

    def test_import_loads_no_worker_pool(self):
        # only --jobs > 1 with several tasks needs the process pool stack
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        code = ("import sys, bosonfermion.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
                "             ('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    # flags are the only run configuration: a variable of the shell, even
    # one named like a flag, changes nothing
    def test_environment_leaves_text_output(self, capsys, monkeypatch):
        monkeypatch.setenv("BOSONFERMION_JSON", "1")
        code, out, _ = run(capsys, "schur", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "s[2]"
        code, out, _ = run(capsys, "schur", "2", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_environment_sets_no_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BOSONFERMION_MAX_DEGREE", "2")
        code, _, _ = run(capsys, "cat", "specht", "3")
        assert code == EXIT_OK
        code, _, _ = run(capsys, "cat", "specht", "3", "--max-degree", "2")
        assert code == EXIT_CAP_EXCEEDED
