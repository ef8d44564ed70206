"""Synthetic stand-in for the German Traffic Sign Recognition Benchmark.

The paper samples 10 random class-pairs from GTSRB's 43 sign classes
(§5.1.1) and reports markedly lower labeling accuracy (~70%) than on
CUB.  GTSRB classes span several *sign families* — prohibition signs
(white disc, red ring), mandatory signs (blue disc, white glyph),
warning triangles, the stop octagon, end-of-restriction signs — and a
random pair may differ a lot (red octagon vs. blue disc) or very little
(two prohibition signs with different glyphs), which is exactly why the
per-pair accuracy varies and averages out mid-range.

This generator reproduces that structure: a *class* is a (sign family,
glyph) combination; ``pair_seed`` samples two distinct classes.
Nuisance includes brightness changes, blur, size variation, background
clutter, and partial occlusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets._render import finish_image, new_canvas
from repro.datasets.base import LabeledImageDataset
from repro.utils.rng import spawn_rng
from repro.vision.draw import draw_line, fill_disk, fill_polygon, fill_rectangle, fill_ring
from repro.vision.texture import fractal_noise

__all__ = ["SIGN_CLASSES", "make_gtsrb"]

_RED = (0.75, 0.10, 0.10)
_BLUE = (0.15, 0.30, 0.70)
_WHITE = (0.95, 0.95, 0.95)
_BLACK = (0.10, 0.10, 0.10)


def _glyph_bar(canvas, cy, cx, r, colour):
    draw_line(canvas, cy - 0.55 * r, cx, cy + 0.55 * r, cx, 0.24 * r, colour)


def _glyph_slash(canvas, cy, cx, r, colour):
    draw_line(canvas, cy - 0.5 * r, cx + 0.5 * r, cy + 0.5 * r, cx - 0.5 * r, 0.24 * r, colour)


def _glyph_cross(canvas, cy, cx, r, colour):
    draw_line(canvas, cy - 0.5 * r, cx, cy + 0.5 * r, cx, 0.2 * r, colour)
    draw_line(canvas, cy, cx - 0.5 * r, cy, cx + 0.5 * r, 0.2 * r, colour)


def _glyph_hbar(canvas, cy, cx, r, colour):
    draw_line(canvas, cy, cx - 0.55 * r, cy, cx + 0.55 * r, 0.24 * r, colour)


def _glyph_chevron(canvas, cy, cx, r, colour):
    draw_line(canvas, cy + 0.35 * r, cx - 0.45 * r, cy - 0.35 * r, cx, 0.2 * r, colour)
    draw_line(canvas, cy - 0.35 * r, cx, cy + 0.35 * r, cx + 0.45 * r, 0.2 * r, colour)


def _glyph_ring(canvas, cy, cx, r, colour):
    fill_ring(canvas, cy, cx, 0.35 * r, 0.18 * r, colour)


def _glyph_double_bar(canvas, cy, cx, r, colour):
    draw_line(canvas, cy - 0.5 * r, cx - 0.25 * r, cy + 0.5 * r, cx - 0.25 * r, 0.17 * r, colour)
    draw_line(canvas, cy - 0.5 * r, cx + 0.25 * r, cy + 0.5 * r, cx + 0.25 * r, 0.17 * r, colour)


@dataclass(frozen=True)
class SignClass:
    """One traffic-sign class: a sign family plus an inner glyph."""

    name: str
    family: str  # "prohibition" | "mandatory" | "warning" | "stop" | "end"
    glyph: object


SIGN_CLASSES: tuple[SignClass, ...] = (
    SignClass("no_entry", "prohibition", _glyph_hbar),
    SignClass("no_overtake", "prohibition", _glyph_double_bar),
    SignClass("limit_bar", "prohibition", _glyph_bar),
    SignClass("no_stopping", "prohibition", _glyph_cross),
    SignClass("ahead_only", "mandatory", _glyph_bar),
    SignClass("roundabout", "mandatory", _glyph_ring),
    SignClass("keep_right", "mandatory", _glyph_chevron),
    SignClass("caution", "warning", _glyph_bar),
    SignClass("stop", "stop", _glyph_hbar),
    SignClass("end_restriction", "end", _glyph_slash),
)


def _draw_sign_face(canvas: np.ndarray, sign: SignClass, cy: float, cx: float, r: float) -> None:
    """Draw the family-specific plate and the class glyph."""
    if sign.family == "prohibition":
        fill_disk(canvas, cy, cx, r, _WHITE)
        fill_ring(canvas, cy, cx, r * 0.91, 0.18 * r, _RED)
        sign.glyph(canvas, cy, cx, r * 0.95, _BLACK)
    elif sign.family == "mandatory":
        fill_disk(canvas, cy, cx, r, _BLUE)
        sign.glyph(canvas, cy, cx, r * 0.95, _WHITE)
    elif sign.family == "warning":
        vertices = np.array([[cy - r, cx], [cy + 0.8 * r, cx - 0.95 * r], [cy + 0.8 * r, cx + 0.95 * r]])
        fill_polygon(canvas, vertices, _WHITE)
        # Red border drawn as three edges.
        border = 0.16 * r
        draw_line(canvas, cy - r, cx, cy + 0.8 * r, cx - 0.95 * r, border, _RED)
        draw_line(canvas, cy - r, cx, cy + 0.8 * r, cx + 0.95 * r, border, _RED)
        draw_line(canvas, cy + 0.8 * r, cx - 0.95 * r, cy + 0.8 * r, cx + 0.95 * r, border, _RED)
        sign.glyph(canvas, cy + 0.15 * r, cx, r * 0.6, _BLACK)
    elif sign.family == "stop":
        angles = np.pi / 8 + np.linspace(0, 2 * np.pi, 8, endpoint=False)
        vertices = np.stack([cy + r * np.sin(angles), cx + r * np.cos(angles)], axis=1)
        fill_polygon(canvas, vertices, _RED)
        sign.glyph(canvas, cy, cx, r * 0.8, _WHITE)
    elif sign.family == "end":
        fill_disk(canvas, cy, cx, r, _WHITE)
        fill_ring(canvas, cy, cx, r * 0.91, 0.1 * r, (0.4, 0.4, 0.4))
        sign.glyph(canvas, cy, cx, r * 0.95, _BLACK)
        # Extra thin parallel stripes characteristic of "end of limits".
        draw_line(canvas, cy - 0.55 * r, cx + 0.2 * r, cy + 0.45 * r, cx - 0.8 * r, 0.08 * r, _BLACK)
    else:  # pragma: no cover - guarded by the fixed class list
        raise ValueError(f"unknown sign family {sign.family!r}")


def _render_sign(
    sign: SignClass, size: int, rng: np.random.Generator, occlusion: float, blur_max: float
) -> np.ndarray:
    h = w = size
    # Street background: tinted fractal clutter plus building-ish blocks.
    tint = rng.uniform(0.35, 0.6, size=3)
    noise = fractal_noise(h, w, rng, octaves=3, base_cells=2)
    canvas = new_canvas(3, h, w)
    canvas[:] = tint[:, None, None] * (0.65 + 0.35 * noise)[None]
    for _ in range(rng.integers(1, 3)):
        top, left = rng.uniform(0, h, size=2)
        fill_rectangle(
            canvas,
            top,
            left,
            top + rng.uniform(8, 24),
            left + rng.uniform(8, 24),
            rng.uniform(0.3, 0.65, size=3),
            opacity=0.45,
        )

    scale = size / 64.0
    r = rng.uniform(16.0, 24.0) * scale
    cy = h / 2 + rng.uniform(-5, 5) * scale
    cx = w / 2 + rng.uniform(-5, 5) * scale
    # Pole.
    draw_line(canvas, cy, cx, h, cx + rng.uniform(-2, 2), 2.0 * scale, (0.35, 0.35, 0.38))
    _draw_sign_face(canvas, sign, cy, cx, r)
    # Partial occlusion by a foreground strip (branch, post, sticker).
    if rng.random() < occlusion:
        oc_w = rng.uniform(0.15, 0.4) * r
        angle = rng.uniform(0, np.pi)
        oy, ox = np.sin(angle), np.cos(angle)
        draw_line(
            canvas,
            cy - oy * 1.5 * r + rng.uniform(-r, r) * ox,
            cx - ox * 1.5 * r - rng.uniform(-r, r) * oy,
            cy + oy * 1.5 * r + rng.uniform(-r, r) * ox,
            cx + ox * 1.5 * r - rng.uniform(-r, r) * oy,
            oc_w,
            rng.uniform(0.15, 0.6, size=3),
        )
    return finish_image(
        canvas,
        rng,
        brightness_range=(0.6, 1.05),
        blur_sigma_range=(0.0, blur_max),
        pixel_noise=0.03,
        grain=0.12,
    )


def make_gtsrb(
    n_per_class: int = 60,
    image_size: int = 64,
    seed: int = 0,
    pair_seed: int = 0,
    occlusion: float = 0.6,
    blur_max: float = 0.8,
) -> LabeledImageDataset:
    """Generate a binary GTSRB-style task for one random sign-class pair.

    ``pair_seed`` selects the two sign classes; ``occlusion`` (the
    probability a sign is partially occluded) and ``blur_max`` (worst
    motion/defocus blur sigma) are the difficulty knobs.
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    pair_rng = spawn_rng(pair_seed, "gtsrb-pair")
    first, second = pair_rng.choice(len(SIGN_CLASSES), size=2, replace=False)
    pair = (SIGN_CLASSES[first], SIGN_CLASSES[second])

    rng = spawn_rng(seed, "gtsrb-render", pair_seed)
    images: list[np.ndarray] = []
    labels: list[int] = []
    for label, sign in enumerate(pair):
        for _ in range(n_per_class):
            images.append(_render_sign(sign, image_size, rng, occlusion, blur_max))
            labels.append(label)

    order = spawn_rng(seed, "gtsrb-shuffle", pair_seed).permutation(len(images))
    return LabeledImageDataset(
        name=f"gtsrb(pair={pair[0].name}|{pair[1].name})",
        images=np.stack(images)[order],
        labels=np.asarray(labels, dtype=np.int64)[order],
        class_names=(pair[0].name, pair[1].name),
    )
