"""The repo benchmark: five named workloads, one command (see README.md)."""
