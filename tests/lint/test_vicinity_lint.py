#!/usr/bin/env python3
"""Self-test for scripts/vicinity_lint.py: every rule must fire on its
seeded fixture in fixtures/violations/ and stay silent on fixtures/clean/.
Stdlib unittest only (wired into ctest by tests/CMakeLists.txt)."""

import contextlib
import io
import sys
import unittest
from pathlib import Path

TESTS_LINT = Path(__file__).resolve().parent
REPO_ROOT = TESTS_LINT.parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import vicinity_lint  # noqa: E402


def run_lint(root: Path) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = vicinity_lint.main(["--root", str(root)])
    return code, buf.getvalue()


class ViolationFixtureTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.output = run_lint(TESTS_LINT / "fixtures" / "violations")

    def test_exit_nonzero(self):
        self.assertEqual(self.code, 1)

    def test_unordered_map_rule_fires(self):
        self.assertIn("[core-no-std-unordered-map]", self.output)
        self.assertIn("bad_map.cpp", self.output)

    def test_raw_new_rule_fires(self):
        self.assertIn("[core-no-raw-new]", self.output)
        self.assertIn("bad_new.cpp", self.output)

    def test_reinterpret_cast_rule_fires(self):
        self.assertIn("[core-no-reinterpret-cast]", self.output)
        self.assertIn("bad_cast.cpp", self.output)

    def test_noexcept_throw_rule_fires(self):
        self.assertIn("[noexcept-no-throw]", self.output)
        self.assertIn("bad_throw.h", self.output)

    def test_umbrella_rule_fires(self):
        self.assertIn("[umbrella-header]", self.output)
        self.assertIn("orphan.h", self.output)
        # The header that IS in the fixture umbrella is not flagged.
        self.assertNotIn("bad_throw.h:1: [umbrella-header]", self.output)

    def test_bench_keys_rule_fires(self):
        self.assertIn("[bench-baseline-keys]", self.output)
        self.assertIn("query_qps_bets", self.output)
        # No gate flag feeds a packed_ prefix any more.
        self.assertIn("metric 'packed_query_p99_us'", self.output)

    def test_net_eintr_rule_fires(self):
        self.assertIn("[net-syscall-eintr]", self.output)
        self.assertIn("bad_syscall.cpp", self.output)

    def test_net_shim_rule_fires(self):
        # bad_shim.cpp handles EINTR correctly, so only the shim rule may
        # flag it — proving the two rules are independent.
        self.assertIn("[net-syscall-shim]", self.output)
        self.assertIn("bad_shim.cpp", self.output)
        self.assertNotIn("bad_shim.cpp:11: [net-syscall-eintr]", self.output)

    def test_net_blocking_rule_fires(self):
        self.assertIn("[net-no-blocking-outside-client]", self.output)
        self.assertIn("bad_blocking.cpp", self.output)

    def test_raw_mutex_rule_fires(self):
        self.assertIn("[no-raw-std-mutex]", self.output)
        self.assertIn("bad_mutex.cpp", self.output)
        # All three seeded sites: the include, the member, the lock_guard.
        self.assertGreaterEqual(self.output.count("[no-raw-std-mutex]"), 3)

    def test_raw_mutex_rule_fires_in_net(self):
        # src/net is held to util::Mutex too: both includes, both members
        # and the unique_lock.
        lines = [l for l in self.output.splitlines()
                 if "bad_lock.cpp" in l and "[no-raw-std-mutex]" in l]
        self.assertGreaterEqual(len(lines), 5, self.output)


class CleanFixtureTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.output = run_lint(TESTS_LINT / "fixtures" / "clean")

    def test_exit_zero(self):
        self.assertEqual(self.code, 0, self.output)

    def test_allow_markers_suppress(self):
        # The clean tree seeds a marked std::unordered_map use and a marked
        # out-of-umbrella header; neither may be reported.
        self.assertNotIn("core-no-std-unordered-map", self.output)
        self.assertNotIn("umbrella-header", self.output)

    def test_net_rules_stay_silent_on_clean_tree(self):
        # client.cpp's blocking connect is sanctioned; the EINTR retry
        # loops and the allow-marked blocking probe must not be reported.
        self.assertNotIn("net-syscall-eintr", self.output)
        self.assertNotIn("net-no-blocking-outside-client", self.output)
        # fi::-routed syscalls and the allow-marked raw write are exempt
        # from the shim rule.
        self.assertNotIn("net-syscall-shim", self.output)

    def test_raw_mutex_rule_stays_silent_on_clean_tree(self):
        # good_shard.cpp locks through util::Mutex and allow-marks its one
        # raw std::mutex mention; neither may be reported.
        self.assertNotIn("no-raw-std-mutex", self.output)


class RealTreeTest(unittest.TestCase):
    def test_repo_is_clean(self):
        code, output = run_lint(REPO_ROOT)
        self.assertEqual(code, 0, f"repo lint not clean:\n{output}")


if __name__ == "__main__":
    unittest.main()
