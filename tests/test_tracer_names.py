"""bench/tracer.py wraps public functions by name from outside the
package; a renamed function must fail here rather than break
`bench/run.py --trace 1` at run time."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    # its top-level imports are stdlib only, so loading it runs nothing
    spec = importlib.util.spec_from_file_location("cancelsum_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wrapped = _load_tracer().WRAPPED
    assert wrapped
    missing = []
    for mod_name, attr, _, _ in wrapped:
        owner = importlib.import_module("cancelsum." + mod_name)
        if "." in attr:
            # install() looks methods up in the class's own __dict__
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append("%s.%s" % (mod_name, attr))
    assert missing == []
