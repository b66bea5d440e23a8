"""The repo's end-to-end benchmark; see README.md and ``python -m benchmarks.e2e -h``."""
