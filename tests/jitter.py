"""The jitter of a single frame, which only tests ask for."""

from mmtsim.loadgen import jitter_offsets


def jitter_offset(source, frame: int, seed: int) -> float:
    """Jitter in milliseconds of one frame of `source`, as `generate_requests` draws it."""
    return jitter_offsets(source, (frame,), seed)[0]
