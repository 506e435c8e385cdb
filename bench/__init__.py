"""The repository benchmark: the paper's workloads timed end to end and
traced layer by layer.  Run it with ``python -m bench`` (see
``bench/README.md``)."""
