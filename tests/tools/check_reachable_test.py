#!/usr/bin/env python3
"""Tests tools/check_reachable.py on the canned `nm -C` listings beside this
file: reachable_libs.nm (two archive members) and reachable_bins.nm (one
linked binary).

In the listings, dlner::Unreached(double) and the ABI-tagged
dlner::data::GenreName are defined and kept by no binary; the binary keeps
dlner::NowReached() only as a [clone .constprop.0]; the weak and strong
template instantiations and the file-local helper are not checked.

    python3 tests/tools/check_reachable_test.py [CheckReachableTest.<case>]
"""
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "..", "tools", "check_reachable.py")

UNREACHED = "dlner::Unreached(double)"
ABI_TAGGED = "dlner::data::GenreName(dlner::data::Genre)"
NOW_REACHED = "dlner::NowReached()"


class CheckReachableTest(unittest.TestCase):
    def check(self, allowlist_lines):
        """Runs the script with the given allowlist; returns (rc, stderr)."""
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("# canned allowlist\n" + "\n".join(allowlist_lines) + "\n")
            allowlist = f.name
        try:
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--allowlist", allowlist,
                 "--libs-nm", os.path.join(HERE, "reachable_libs.nm"),
                 "--bins-nm", os.path.join(HERE, "reachable_bins.nm")],
                capture_output=True, text=True, check=False)
        finally:
            os.unlink(allowlist)
        return proc.returncode, proc.stderr

    def test_allowlisted_unreached_functions_pass(self):
        rc, err = self.check([f"{UNREACHED}  # canned reason",
                              f"{ABI_TAGGED}  # written without its tag"])
        self.assertEqual(rc, 0, err)
        self.assertEqual(err, "")

    def test_unreached_function_fails(self):
        rc, err = self.check([f"{ABI_TAGGED}  # written without its tag"])
        self.assertEqual(rc, 1)
        self.assertIn(f"reached by no binary: {UNREACHED}", err)
        self.assertEqual(err.count("FAIL"), 1, err)

    def test_abi_tagged_function_is_checked_without_its_tag(self):
        rc, err = self.check([f"{UNREACHED}  # canned reason"])
        self.assertEqual(rc, 1)
        self.assertIn(f"reached by no binary: {ABI_TAGGED}", err)
        self.assertEqual(err.count("FAIL"), 1, err)

    def test_entry_reached_through_a_clone_is_stale(self):
        rc, err = self.check([f"{UNREACHED}  # canned reason",
                              f"{ABI_TAGGED}  # written without its tag",
                              f"{NOW_REACHED}  # was unreached once"])
        self.assertEqual(rc, 1)
        self.assertIn(f"stale allowlist entry, now reached: {NOW_REACHED}",
                      err)
        self.assertEqual(err.count("FAIL"), 1, err)

    def test_entry_no_library_defines_is_stale(self):
        rc, err = self.check([f"{UNREACHED}  # canned reason",
                              f"{ABI_TAGGED}  # written without its tag",
                              "dlner::Deleted(int)  # deleted since"])
        self.assertEqual(rc, 1)
        self.assertIn(
            "stale allowlist entry, no longer defined: dlner::Deleted(int)",
            err)

    def test_entry_without_reason_fails(self):
        rc, err = self.check([UNREACHED,
                              f"{ABI_TAGGED}  # written without its tag"])
        self.assertEqual(rc, 1)
        self.assertIn(f"'{UNREACHED}' has no reason", err)


if __name__ == "__main__":
    unittest.main()
