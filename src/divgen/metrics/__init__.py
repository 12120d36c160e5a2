"""Diversity metrics, clustering, rank fusion, and comparison statistics."""
