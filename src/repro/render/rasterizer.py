"""Z-buffered triangle rasterization, vectorized over triangle batches.

Strategy (per the HPC guides: vectorize the inner loops, mind memory):

1. project every vertex once (one matrix multiply for the whole mesh);
2. cull faces behind the near plane, zero-area faces, and (optionally)
   backfaces;
3. rasterize the survivors in blocks, evaluating barycentric coordinates
   for *all faces of a block at once* on a shared ``B x B`` offset grid —
   a single broadcast of shape ``(faces, B*B)``:

   - *sub-pixel pass*: a face whose clamped floor/ceil box is at most
     3 px can only cover the pixel centres inside its closed bounding
     box, so its box shrinks to the window ``[ceil(min - 0.5),
     floor(max - 0.5)]`` per axis.  Faces with an empty window (most of
     a distant model) are dropped before any edge-function work; the
     rest form one block sized to the largest window (2 px, or 3 px
     where a box is clamped at the right or bottom edge);
   - the larger faces are bucketed by box size (4, 8, 16, ... pixels),
     one block per bucket;

   faces run in the stable ``argsort`` order of box size, smallest
   first, so when fragments tie on depth the face later in that order
   writes the color, wherever the block boundaries fall;
4. depth-test with a two-pass scatter: ``np.minimum.at`` builds the winning
   depth per pixel, then fragments equal to the winner write color.

Fragment chunks are capped (``max_fragments``) so peak memory stays bounded
regardless of triangle count.  Perspective-correct depth uses the linear
interpolation of ``1/w`` in screen space.

Near-plane behaviour: faces with any vertex closer than ``camera.near`` are
*dropped*, not clipped — the standard simplification for a z-buffer
renderer whose cameras orbit outside the model (every paper scenario).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.meshes import Mesh
from repro.errors import RenderError
from repro.render.camera import Camera
from repro.render.framebuffer import FrameBuffer
from repro.render.shading import flat_intensity, gouraud_intensity

#: bounding-box size buckets (pixels); boxes above the last bucket are
#: rendered in per-face slices (rare close-up geometry)
_BUCKETS = (4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class RasterStats:
    """What one rasterization pass did — feeds the engine's timing model."""

    faces_in: int
    faces_culled_near: int
    faces_culled_backface: int
    faces_culled_offscreen: int
    faces_rasterized: int
    fragments: int

    @property
    def visible_fraction(self) -> float:
        return self.faces_rasterized / self.faces_in if self.faces_in else 0.0


def _face_colors(mesh: Mesh, base_color, shading: str, light_direction
                 ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Returns (per-face RGB float, per-vertex RGB float); one is None."""
    base = np.asarray(base_color, dtype=np.float64)
    if base.shape != (3,):
        raise RenderError(f"base_color must be RGB; got {base!r}")
    if shading == "flat":
        intensity = flat_intensity(mesh, light_direction)
        if mesh.colors is not None:
            rgb = mesh.colors[mesh.faces].mean(axis=1) * 255.0
        else:
            rgb = base[None, :]
        return intensity[:, None] * rgb, None
    if shading == "gouraud":
        intensity = gouraud_intensity(mesh, light_direction)
        if mesh.colors is not None:
            rgb = mesh.colors.astype(np.float64) * 255.0
        else:
            rgb = np.broadcast_to(base, (mesh.n_vertices, 3))
        return None, intensity[:, None] * rgb
    if shading == "none":
        if mesh.colors is not None:
            return mesh.colors[mesh.faces].mean(axis=1) * 255.0, None
        return np.broadcast_to(base, (mesh.n_triangles, 3)).copy(), None
    raise RenderError(f"unknown shading mode {shading!r}")


def rasterize_mesh(mesh: Mesh, camera: Camera, fb: FrameBuffer,
                   base_color=(200, 200, 210), shading: str = "flat",
                   light_direction=None, cull_backfaces: bool = False,
                   max_fragments: int = 4_000_000) -> RasterStats:
    """Rasterize a mesh into ``fb`` (accumulating against its z-buffer)."""
    n_in = mesh.n_triangles
    if n_in == 0:
        return RasterStats(0, 0, 0, 0, 0, 0)

    width, height = fb.width, fb.height
    screen, w = camera.project_vertices(mesh.vertices, width, height)

    faces = mesh.faces
    corners_all = screen[faces]                           # (n, 3, 3)
    w_all = w[faces]                                      # (n, 3)
    p0, p1, p2 = corners_all[:, 0], corners_all[:, 1], corners_all[:, 2]
    w0v, w1v, w2v = w_all[:, 0], w_all[:, 1], w_all[:, 2]

    # -- cull: near plane ------------------------------------------------------
    in_front = ((w0v > camera.near) & (w1v > camera.near)
                & (w2v > camera.near))
    n_near = int((~in_front).sum())

    # -- cull: degenerate / backface --------------------------------------------
    area = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
            - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    if cull_backfaces:
        facing = area < -1e-12  # CCW in y-down screen space
    else:
        facing = np.abs(area) > 1e-12
    n_back = int((in_front & ~facing).sum())
    keep = in_front & facing

    # -- cull: off-screen bounding boxes -----------------------------------------
    xmin = np.minimum(np.minimum(p0[:, 0], p1[:, 0]), p2[:, 0])
    xmax = np.maximum(np.maximum(p0[:, 0], p1[:, 0]), p2[:, 0])
    ymin = np.minimum(np.minimum(p0[:, 1], p1[:, 1]), p2[:, 1])
    ymax = np.maximum(np.maximum(p0[:, 1], p1[:, 1]), p2[:, 1])
    bx0 = np.floor(xmin)
    bx1 = np.ceil(xmax)
    by0 = np.floor(ymin)
    by1 = np.ceil(ymax)
    on_screen = (bx1 >= 0) & (bx0 < width) & (by1 >= 0) & (by0 < height)
    n_off = int((keep & ~on_screen).sum())
    keep &= on_screen
    idx = np.nonzero(keep)[0]
    if not len(idx):
        return RasterStats(n_in, n_near, n_back, n_off, 0, 0)

    # clamp boxes to the framebuffer
    bx0 = np.clip(bx0[idx], 0, width - 1).astype(np.int64)
    by0 = np.clip(by0[idx], 0, height - 1).astype(np.int64)
    bx1 = np.clip(bx1[idx], 0, width - 1).astype(np.int64)
    by1 = np.clip(by1[idx], 0, height - 1).astype(np.int64)
    bw = bx1 - bx0 + 1
    bh = by1 - by0 + 1
    bmax = np.maximum(bw, bh)

    textured = mesh.texture is not None and mesh.uv is not None
    if textured:
        # texture modulated by Gouraud intensity; uv interpolated like
        # vertex colors (screen-space barycentric, same approximation)
        face_rgb = None
        vert_rgb = None
        vert_uv = mesh.uv.astype(np.float64)
        vert_intensity = gouraud_intensity(mesh, light_direction)
        texture = mesh.texture
    else:
        face_rgb, vert_rgb = _face_colors(mesh, base_color, shading,
                                          light_direction)
        vert_uv = None
        vert_intensity = None
        texture = None
    if face_rgb is not None:
        face_rgb = face_rgb[idx]  # align with the surviving-face index space

    depth_flat = fb.depth.reshape(-1)
    color_flat = fb.color.reshape(-1, 3)
    inv_w = 1.0 / w_all[idx]                              # (k, 3)
    corners = corners_all[idx]                            # (k, 3, 3)
    area_k = area[idx]
    total_fragments = 0

    def _raster_block(sel: np.ndarray, B: int) -> int:
        """Rasterize faces ``sel`` (indices into idx-space) on a BxB grid."""
        k = len(sel)
        if k == 0:
            return 0
        ox = np.arange(B)
        oy = np.arange(B)
        # pixel centers: (k, B) each axis
        px = bx0[sel][:, None] + ox[None, :]
        py = by0[sel][:, None] + oy[None, :]
        cx = px + 0.5
        cy = py + 0.5
        c = corners[sel]                                  # (k, 3, 3)
        x0, y0 = c[:, 0, 0], c[:, 0, 1]
        x1, y1 = c[:, 1, 0], c[:, 1, 1]
        x2, y2 = c[:, 2, 0], c[:, 2, 1]
        a = area_k[sel]
        inv_a = 1.0 / a
        # edge functions on the (k, B, B) grid via broadcasting
        CX = cx[:, None, :]                               # (k, 1, B)
        CY = cy[:, :, None]                               # (k, B, 1)
        l0 = ((x1 - x0)[:, None, None] * (CY - y0[:, None, None])
              - (y1 - y0)[:, None, None] * (CX - x0[:, None, None]))
        l1 = ((x2 - x1)[:, None, None] * (CY - y1[:, None, None])
              - (y2 - y1)[:, None, None] * (CX - x1[:, None, None]))
        l2 = ((x0 - x2)[:, None, None] * (CY - y2[:, None, None])
              - (y0 - y2)[:, None, None] * (CX - x2[:, None, None]))
        # normalized barycentric (l1 is opposite vertex 0, etc.)
        b0 = l1 * inv_a[:, None, None]
        b1 = l2 * inv_a[:, None, None]
        b2 = l0 * inv_a[:, None, None]
        inside = (b0 >= 0) & (b1 >= 0) & (b2 >= 0)
        # stay inside both the per-face bbox and the framebuffer
        inside &= (px[:, None, :] <= bx1[sel][:, None, None])
        inside &= (py[:, :, None] <= by1[sel][:, None, None])
        inside &= (px[:, None, :] < width) & (py[:, :, None] < height)
        if not inside.any():
            return 0
        # perspective-correct depth: interpolate 1/w linearly
        iw = inv_w[sel]                                   # (k, 3)
        inv_depth = (b0 * iw[:, 0, None, None]
                     + b1 * iw[:, 1, None, None]
                     + b2 * iw[:, 2, None, None])
        face_of = np.broadcast_to(
            np.arange(k)[:, None, None], inside.shape)[inside]
        flat_pix = (py[:, :, None] * width
                    + px[:, None, :] * np.ones((k, B, 1), dtype=np.int64))
        pix = flat_pix[inside]
        z = (1.0 / inv_depth[inside]).astype(np.float32)
        # pass 1: winning depth per pixel
        np.minimum.at(depth_flat, pix, z)
        # pass 2: fragments that won write color
        winners = depth_flat[pix] == z
        pix_w = pix[winners]
        if textured:
            vu = vert_uv[faces[idx[sel]]]                 # (k, 3, 2)
            vi = vert_intensity[faces[idx[sel]]]          # (k, 3)
            bb0 = b0[inside][winners]
            bb1 = b1[inside][winners]
            bb2 = b2[inside][winners]
            fw = face_of[winners]
            u = (bb0 * vu[fw, 0, 0] + bb1 * vu[fw, 1, 0]
                 + bb2 * vu[fw, 2, 0])
            v_coord = (bb0 * vu[fw, 0, 1] + bb1 * vu[fw, 1, 1]
                       + bb2 * vu[fw, 2, 1])
            intensity = (bb0 * vi[fw, 0] + bb1 * vi[fw, 1]
                         + bb2 * vi[fw, 2])
            rgb = texture.sample(u % 1.0, v_coord % 1.0) \
                * intensity[:, None]
        elif vert_rgb is None:
            rgb = face_rgb[sel][face_of[winners]]
        else:
            vr = vert_rgb[faces[idx[sel]]]                # (k, 3, 3)
            bb0 = b0[inside][winners]
            bb1 = b1[inside][winners]
            bb2 = b2[inside][winners]
            fw = face_of[winners]
            rgb = (bb0[:, None] * vr[fw, 0]
                   + bb1[:, None] * vr[fw, 1]
                   + bb2[:, None] * vr[fw, 2])
        color_flat[pix_w] = np.clip(rgb, 0.0, 255.0).astype(np.uint8)
        return int(inside.sum())

    def _raster_bucket(block: np.ndarray, B: int) -> int:
        """Rasterize ``block`` on a BxB grid in chunks of bounded size."""
        chunk = max(1, max_fragments // (B * B))
        return sum(_raster_block(block[start:start + chunk], B)
                   for start in range(0, len(block), chunk))

    order = np.argsort(bmax, kind="stable")
    bmax_sorted = bmax[order]
    # sub-pixel pass: only pixel centres inside a face's closed bounding
    # box can pass the edge test, so shrink each <=3 px box to that window
    pos = int(np.searchsorted(bmax_sorted, 3, side="right"))
    sub = order[:pos]
    ks = idx[sub]
    wx0 = np.maximum(bx0[sub], np.ceil(xmin[ks] - 0.5)).astype(np.int64)
    wx1 = np.minimum(bx1[sub], np.floor(xmax[ks] - 0.5)).astype(np.int64)
    wy0 = np.maximum(by0[sub], np.ceil(ymin[ks] - 0.5)).astype(np.int64)
    wy1 = np.minimum(by1[sub], np.floor(ymax[ks] - 0.5)).astype(np.int64)
    hit = (wx0 <= wx1) & (wy0 <= wy1)  # faces with no centre are dropped
    if hit.any():
        sub = sub[hit]
        bx0[sub], bx1[sub] = wx0[hit], wx1[hit]
        by0[sub], by1[sub] = wy0[hit], wy1[hit]
        B = int(max((wx1 - wx0)[hit].max(), (wy1 - wy0)[hit].max())) + 1
        total_fragments += _raster_bucket(sub, B)
    for B in _BUCKETS:
        hi = int(np.searchsorted(bmax_sorted, B, side="right"))
        block = order[pos:hi]
        pos = hi
        if len(block):
            total_fragments += _raster_bucket(block, B)
    # oversized boxes: per-face full-bbox pass
    for sel in order[pos:]:
        B = int(bmax[sel])
        total_fragments += _raster_block(np.array([sel]), B)

    return RasterStats(
        faces_in=n_in,
        faces_culled_near=n_near,
        faces_culled_backface=n_back,
        faces_culled_offscreen=n_off,
        faces_rasterized=len(idx),
        fragments=total_fragments,
    )
