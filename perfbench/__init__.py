"""Host-time benchmark of the serving path and the interface sweeps."""
