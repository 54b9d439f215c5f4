"""Applications built on distributed queuing (§1 / §5.1 of the paper)."""
