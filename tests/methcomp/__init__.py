"""Test package (unique module paths for pytest collection)."""
