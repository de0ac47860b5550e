import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import trees  # noqa: E402

# A toy tool whose collect step reports which robustpca it imported.  This
# checkout's src comes last on its path, as an installed copy would, so a
# checkout without the package falls through to it.
TOY = """
import sys
sys.path.insert(0, {tools!r})
sys.path.append({src!r})
import trees


def collect(*args):
    import robustpca
    return getattr(robustpca, "MARKER", None), robustpca.__file__, args


if __name__ == "__main__":
    sys.exit(0 if trees.serve(collect, sys.argv) else 2)
"""


@pytest.fixture()
def toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY.format(tools=str(ROOT / "tools"), src=str(ROOT / "src")))
    return path


def fake_checkout(root, with_package=True):
    (root / "perfbench").mkdir(parents=True)
    if with_package:
        (root / "src" / "robustpca").mkdir(parents=True)
        (root / "src" / "robustpca" / "__init__.py").write_text('MARKER = "fake"\n')
    return root


class TestTrees:
    def test_collect_imports_the_given_checkout(self, toy, tmp_path):
        fake = fake_checkout(tmp_path / "fake")
        marker, path, args = trees.run(toy, fake, "a", "b")
        assert marker == "fake"
        assert Path(path).is_relative_to(fake / "src")
        assert args == ("a", "b")

    def test_checkout_without_the_package_fails(self, toy, tmp_path, capfd):
        # robustpca then comes from this checkout, which the step refuses
        empty = fake_checkout(tmp_path / "empty", with_package=False)
        with pytest.raises(subprocess.CalledProcessError):
            trees.run(toy, empty)
        err = capfd.readouterr().err
        assert "RuntimeError: imported " in err and "not from %s" % empty in err
        assert str(ROOT / "src" / "robustpca" / "__init__.py") in err

    def test_bound_reads_this_checkouts_benchmark(self):
        assert trees.bound("recovery_error") == 0.2
