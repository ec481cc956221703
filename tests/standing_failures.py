"""Exit 0 only when the failed and errored tests of a pytest JUnit XML
report are exactly the three standing acceptance failures.

    python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tests/standing_failures.py tier1.xml

A new failure or error fails the check, and so does a standing test that
starts to pass or is no longer run: each change to the set is a decision,
made in this file.
"""
import sys
import xml.etree.ElementTree as ET

STANDING = {
    "tests/test_acceptance.py::test_stabilized_flagship_levels",
    "tests/test_acceptance.py::test_spuriosity_flags_and_removal",
    "tests/test_acceptance.py::test_convergence_study",
}


def failed_ids(path):
    """The ids (file::name, as pytest prints them) of every testcase in
    the report with a failure or an error."""
    ids = set()
    for case in ET.parse(path).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname", "").replace(".", "/")
            ids.add(f"{module}.py::{case.get('name')}")
    return ids


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    failed = failed_ids(argv[0])
    for label, ids in (("new failure", failed - STANDING),
                       ("standing failure that did not fail", STANDING - failed)):
        for i in sorted(ids):
            print(f"{label}: {i}")
    if failed != STANDING:
        return 1
    print(f"only the {len(STANDING)} standing failures")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
