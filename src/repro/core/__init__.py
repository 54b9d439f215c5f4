"""The queuing protocols: arrow (the paper's subject) and its baselines."""
