"""Pluggable chat-LLM and embedding backends plus the structured prompt format."""
