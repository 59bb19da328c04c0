"""End-to-end and per-layer benchmark of the cantorshift CLI; see README.md."""
