"""The repository benchmark: see README.md and ``run.py``."""
