"""Seeded MNIST-shaped digit images, written as an IDX pair.

Each digit class has two or three stroke styles (an open and a closed 4, a
7 with and without a crossbar, a slashed 0, ...). Every image draws one
style, jitters its stroke points, applies a random rotation, scale, shear
and shift, and renders the strokes with a random pen width as anti-aliased
ink on a 28x28 grid. The styles and the continuous deformations give each
class within-class structure, so a per-parent k-means has real work to do
instead of snapping onto ten prototypes.
"""

import hashlib

import numpy as np

SIZE = 28
_BOX = 20.0  # the digit's unit box maps onto the central 20x20 pixels, as in MNIST


def _arc(cx, cy, rx, ry, a0, a1, n=12):
    """Points on an ellipse arc; angles in degrees, y pointing down."""
    a = np.radians(np.linspace(a0, a1, n))
    return np.stack([cx + rx * np.cos(a), cy + ry * np.sin(a)], axis=1)


def _line(*points):
    return np.array(points, dtype=np.float64)


def _join(*parts):
    return np.vstack(parts)


# Each style is a tuple of polylines in the unit box (x right, y down).
STYLES = {
    0: (
        (_arc(0.5, 0.5, 0.3, 0.45, 0, 360, 16),),
        (_arc(0.5, 0.5, 0.18, 0.45, 0, 360, 16),),
        (_arc(0.5, 0.5, 0.28, 0.45, 0, 360, 16), _line((0.3, 0.8), (0.7, 0.2))),
    ),
    1: (
        (_line((0.5, 0.05), (0.5, 0.95)),),
        (_line((0.32, 0.22), (0.5, 0.05), (0.5, 0.95)),),
        (_line((0.32, 0.22), (0.5, 0.05), (0.5, 0.95)), _line((0.28, 0.95), (0.72, 0.95))),
    ),
    2: (
        (_join(_arc(0.5, 0.3, 0.28, 0.25, 180, 400), _line((0.2, 0.95), (0.85, 0.95))),),
        (_join(_arc(0.5, 0.3, 0.28, 0.25, 180, 400), _arc(0.3, 0.88, 0.1, 0.07, 300, 90, 6),
               _line((0.85, 0.92))),),
    ),
    3: (
        (_arc(0.5, 0.28, 0.27, 0.23, 200, 450), _arc(0.5, 0.72, 0.3, 0.23, 270, 520)),
        (_join(_line((0.2, 0.05), (0.8, 0.05), (0.45, 0.45)), _arc(0.5, 0.72, 0.3, 0.25, 260, 520)),),
    ),
    4: (
        (_line((0.65, 0.95), (0.65, 0.05), (0.15, 0.65), (0.85, 0.65)),),
        (_line((0.2, 0.05), (0.2, 0.6), (0.85, 0.6)), _line((0.65, 0.2), (0.65, 0.95))),
    ),
    5: (
        (_join(_line((0.8, 0.05), (0.3, 0.05), (0.27, 0.45)), _arc(0.5, 0.68, 0.3, 0.27, 230, 500)),),
        (_line((0.3, 0.05), (0.27, 0.45)), _line((0.3, 0.05), (0.8, 0.05)),
         _arc(0.5, 0.7, 0.28, 0.25, 240, 490)),
    ),
    6: (
        (_arc(0.62, 0.55, 0.4, 0.5, 250, 180, 8), _arc(0.5, 0.72, 0.3, 0.23, 0, 360, 14)),
        (_line((0.65, 0.05), (0.25, 0.62)), _arc(0.5, 0.72, 0.28, 0.23, 0, 360, 14)),
    ),
    7: (
        (_line((0.15, 0.05), (0.85, 0.05), (0.4, 0.95)),),
        (_line((0.15, 0.05), (0.85, 0.05), (0.4, 0.95)), _line((0.35, 0.5), (0.78, 0.5))),
        (_line((0.15, 0.22), (0.15, 0.05), (0.85, 0.05), (0.5, 0.95)),),
    ),
    8: (
        (_arc(0.5, 0.27, 0.25, 0.22, 0, 360, 14), _arc(0.5, 0.72, 0.3, 0.24, 0, 360, 14)),
        (_arc(0.56, 0.27, 0.22, 0.22, 0, 360, 14), _arc(0.42, 0.72, 0.3, 0.24, 0, 360, 14)),
    ),
    9: (
        (_arc(0.5, 0.3, 0.28, 0.24, 0, 360, 14), _line((0.78, 0.3), (0.7, 0.95))),
        (_arc(0.5, 0.3, 0.28, 0.24, 0, 360, 14), _arc(0.2, 0.3, 0.58, 0.65, 0, 80, 8)),
    ),
}


_MAX_PIECE = 0.12  # unit-box length; keeps every piece inside one render window
_WINDOW = 12        # pixels per side of the window rendered around a piece
_PAD = _WINDOW      # margin around the 28x28 canvas so windows never clip


def _segments(style):
    """(points, start index, end index) of every piece of a style.

    Polylines are subdivided until no piece is longer than ``_MAX_PIECE``.
    """
    points, starts = [], []
    offset = 0
    for line in style:
        dense = [line[:1]]
        for a, b in zip(line[:-1], line[1:]):
            steps = max(1, int(np.ceil(np.linalg.norm(b - a) / _MAX_PIECE)))
            dense.append(a + (b - a) * (np.arange(1, steps + 1)[:, None] / steps))
        dense = np.vstack(dense)
        points.append(dense)
        starts.extend(range(offset, offset + len(dense) - 1))
        offset += len(dense)
    starts = np.array(starts)
    return np.vstack(points), starts, starts + 1


def _render(points, starts, ends, width, ink):
    """Anti-aliased strokes for a group of images sharing one style.

    ``points`` is (g, p, 2) in pixel coordinates; returns (g, 28, 28) uint8.
    Each piece only touches a small window around itself, so the distance
    to a piece is computed on that window and merged into the canvas by max.
    """
    g = points.shape[0]
    canvas = np.zeros((g, SIZE + 2 * _PAD, SIZE + 2 * _PAD))
    rows = np.arange(g)[:, None, None]
    offsets = np.arange(_WINDOW)
    for s, e in zip(starts, ends):
        a, b = points[:, s], points[:, e]
        corner = np.floor(np.minimum(a, b) - 3.0).astype(np.int64)
        corner = np.clip(corner, -_PAD, SIZE + _PAD - _WINDOW)
        xs = corner[:, 0, None] + offsets  # (g, W) pixel columns
        ys = corner[:, 1, None] + offsets  # (g, W) pixel rows
        ab = b - a
        dx = (xs + 0.5 - a[:, 0, None])[:, None, :]  # (g, 1, W)
        dy = (ys + 0.5 - a[:, 1, None])[:, :, None]  # (g, W, 1)
        length_sq = np.maximum(np.sum(ab * ab, axis=1), 1e-12)[:, None, None]
        abx, aby = ab[:, 0, None, None], ab[:, 1, None, None]
        t = np.clip((dx * abx + dy * aby) / length_sq, 0.0, 1.0)
        dist = np.hypot(dx - t * abx, dy - t * aby)
        level = np.clip(width[:, None, None] + 0.5 - dist, 0.0, 1.0)
        window = (rows, ys[:, :, None] + _PAD, xs[:, None, :] + _PAD)
        canvas[window] = np.maximum(canvas[window], level)
    inked = canvas[:, _PAD : _PAD + SIZE, _PAD : _PAD + SIZE] * ink[:, None, None]
    return np.rint(inked * 255.0).astype(np.uint8)


def generate(count: int, rng):
    """``count`` images (uint8, count x 28 x 28) and their labels 0-9."""
    labels = rng.integers(0, 10, size=count)
    style_of = np.array([rng.integers(len(STYLES[int(d)])) for d in labels])
    theta = np.radians(rng.normal(0.0, 12.0, count))
    scale = np.stack([rng.uniform(0.75, 1.05, count), rng.uniform(0.85, 1.05, count)], axis=1)
    shear = rng.normal(0.0, 0.2, count)
    shift = rng.normal(0.0, 1.2, (count, 2))
    width = rng.uniform(0.9, 2.0, count)
    ink = rng.uniform(0.7, 1.0, count)

    cos, sin = np.cos(theta), np.sin(theta)
    # rotation @ shear @ scale, applied about the image centre
    affine = np.empty((count, 2, 2))
    affine[:, 0, 0] = cos * scale[:, 0]
    affine[:, 0, 1] = (cos * shear - sin) * scale[:, 1]
    affine[:, 1, 0] = sin * scale[:, 0]
    affine[:, 1, 1] = (sin * shear + cos) * scale[:, 1]

    pixels = np.zeros((count, SIZE, SIZE), dtype=np.uint8)
    for digit, styles in STYLES.items():
        for s, style in enumerate(styles):
            members = np.nonzero((labels == digit) & (style_of == s))[0]
            base, starts, ends = _segments(style)
            jitter = rng.normal(0.0, 0.015, (len(members), *base.shape))
            local = (base[None] + jitter - 0.5) * _BOX
            points = np.einsum("gij,gpj->gpi", affine[members], local) + SIZE / 2 + shift[members, None]
            pixels[members] = _render(points, starts, ends, width[members], ink[members])
    return pixels, labels


def write_pair(count: int, rng, stem: str) -> dict:
    """Generate ``count`` digits and write ``<stem>-images-idx3-ubyte`` and
    ``<stem>-labels-idx1-ubyte`` with acol's own IDX writers.

    Returns path -> sha256 of each file.
    """
    from acol.datasets import write_idx_images, write_idx_labels

    pixels, labels = generate(count, rng)
    paths = (f"{stem}-images-idx3-ubyte", f"{stem}-labels-idx1-ubyte")
    write_idx_images(pixels, paths[0])
    write_idx_labels(labels, paths[1])
    digests = {}
    for path in paths:
        with open(path, "rb") as f:
            digests[path] = hashlib.sha256(f.read()).hexdigest()
    return digests
