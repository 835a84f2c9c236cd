"""The call census (benchmarks/census.py) on a two-line entry script:
what the script calls reads as entry-reached, what it does not call as
unreached, decorated functions included."""

import sys

from benchmarks import census


MODULE = '''\
import functools


def called():
    return 1


def idle():
    return 2


@functools.lru_cache(maxsize=None)
def cached():
    return 3


class Box:
    @property
    def size(self):
        return 4

    def unused(self):
        raise NotImplementedError
'''


def test_census_tells_called_from_uncalled(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "mod.py").write_text(MODULE, encoding="utf-8")
    script = tmp_path / "entry.py"
    script.write_text(
        "import pkg.mod as m\nm.called(), m.cached(), m.Box().size\n",
        encoding="utf-8",
    )
    functions = census.list_functions(src)
    names = {f.qualname: f for f in functions}
    assert set(names) == {"called", "idle", "cached", "Box.size", "Box.unused"}
    assert names["Box.unused"].stub and not names["idle"].stub

    hits, statuses = census.run_hooked(
        [("entry", [sys.executable, str(script)])], src, cwd=tmp_path
    )
    assert [(label, code) for label, code, _ in statuses] == [("entry", 0)]
    kinds = census.classify(functions, census.called(functions, hits, src), set())
    assert kinds == {
        "pkg/mod.py::called": "entry",
        "pkg/mod.py::idle": "unreached",
        # a decorated function's code object starts at its decorator
        "pkg/mod.py::cached": "entry",
        "pkg/mod.py::Box.size": "entry",
        "pkg/mod.py::Box.unused": "unreached",
    }
    # what only the tests reach reads as test-only
    tests_only = census.classify(functions, set(), {"pkg/mod.py::idle"})
    assert tests_only["pkg/mod.py::idle"] == "test-only"
