"""Host-cost benchmark for the repro simulator (see README.md)."""
