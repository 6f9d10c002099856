"""The repository benchmark: three workloads over the public façade,
end-to-end metrics untraced and per-layer metrics from a traced window.
See ``perfbench/README.md``."""
