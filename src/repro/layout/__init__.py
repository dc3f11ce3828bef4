"""Hexagonal gate-level layouts, clocking, super-tiles, DRC, rendering."""
