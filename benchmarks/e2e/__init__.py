# Marks the directory as a package so pytest imports the smoke test as
# ``e2e.test_bench_smoke`` instead of putting this directory on sys.path,
# where ``trace.py`` would shadow the standard library's ``trace``.
