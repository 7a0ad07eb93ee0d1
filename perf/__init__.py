"""The repo's system benchmark (see perf/README.md and BENCHMARK.json)."""
