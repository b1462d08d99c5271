"""Ablation harness: grid enumeration, synthetic data, execution, reports."""
