"""Situation-conditioned active object localization.

Learns joint probabilistic models of object location, size, and shape from
annotated scenes, then searches new images by sampling object proposals from
distributions that are re-conditioned on every detection as it happens. A
benchmark harness compares the conditioned search against context-free
baselines by the median number of proposals needed to find every object.
"""
