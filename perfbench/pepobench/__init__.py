"""The PEPO benchmark: seeded workloads, a closed-loop client, spans."""
