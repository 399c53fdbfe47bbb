"""Viewpoint-driven information filtering for collaborative product development.

Stores a product/process/organization model, evaluates per-actor viewpoints
into leveled information batches, merges them into one adequate information
set, and runs the modification proposal/approval workflow around the result.
"""
