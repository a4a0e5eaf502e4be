"""The benchmark's layer wrappers (perfbench/layers.py) install on the
package as it is: a renamed or deleted name that a wrapper replaces fails
here, in Tier-1, and not only in perfbench/check_smoke.py's subprocess runs.
The benchmark's files are imported, never edited."""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def namespaces(mods):
    """Every package module the wrappers reach, and every class defined in one."""
    out = list(mods.values())
    for mod in mods.values():
        out += [value for value in vars(mod).values()
                if isinstance(value, type) and value.__module__ == mod.__name__]
    return out


def test_layer_wrappers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    before = [(space, dict(vars(space))) for space in namespaces(layers.modules())]
    tracer = spans.Tracer()
    try:
        layers.Instruments(tracer).install()
        wrapped = [(space, attr) for space, attrs in before
                   for attr, value in attrs.items() if vars(space).get(attr) is not value]
        assert wrapped, "install() replaced no attribute"
    finally:
        tracer.restore()
        for space, attrs in before:
            assert vars(space).keys() == attrs.keys(), space
            for attr, value in attrs.items():
                assert vars(space)[attr] is value, (space, attr)
