"""Message-passing network substrate: links, latency models, nodes."""
