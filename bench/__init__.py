"""The repo's benchmark: six workloads over the real TCP wire (see README.md)."""
