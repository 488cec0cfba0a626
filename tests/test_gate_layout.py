"""Every gate query that reaches ``core.exchange.bucket_exchange`` gives the
same canonical output at two extreme exchange layouts: one task with one
``fn`` call per partition, and eight tasks with a call every 64 rows."""

import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pandas as pd

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _check_contract():
    spec = importlib.util.spec_from_file_location(
        "check_contract", ROOT / "tools" / "check_contract.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_gate_queries_do_not_depend_on_the_exchange_layout(
    ray_session, monkeypatch
):
    from record_matcher_ray.contract.shared import SF001
    from record_matcher_ray.core import exchange

    monkeypatch.syspath_prepend(str(ROOT))
    import __ray_entry__

    cc = _check_contract()
    real = exchange.bucket_exchange
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # pipelines bind bucket_exchange by name at import: import them all,
    # then patch every binding
    import record_matcher_ray.pipelines as pipelines

    for info in pkgutil.iter_modules(pipelines.__path__):
        importlib.import_module(f"{pipelines.__name__}.{info.name}")
    for mod in [m for n, m in sys.modules.items()
                if n.startswith("record_matcher_ray") and m is not None]:
        if getattr(mod, "bucket_exchange", None) is real:
            monkeypatch.setattr(mod, "bucket_exchange", spy)

    def run(fn, tasks, rows):
        monkeypatch.setattr(exchange, "default_tasks", lambda: tasks)
        monkeypatch.setattr(exchange, "_ROWS_PER_CALL", rows)
        return cc.canon(cc.to_pandas(fn(SF001)))

    checked, failed = [], {}
    for name, fn in __ray_entry__.queries().items():
        calls.clear()
        one = run(fn, 1, 1 << 40)
        if not calls:
            continue
        checked.append(name)
        try:
            pd.testing.assert_frame_equal(run(fn, 8, 64), one)
        except AssertionError as ex:
            failed[name] = str(ex).splitlines()[:3]
    assert len(checked) > 90, checked
    assert not failed, failed
