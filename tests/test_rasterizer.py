"""The software rasterizer: coverage, occlusion, culling, shading paths."""

import numpy as np
import pytest

from repro.data.meshes import Mesh, merge_meshes
from repro.data.textures import Texture
from repro.errors import RenderError
from repro.render.camera import Camera
from repro.render.framebuffer import FrameBuffer
from repro.render.rasterizer import rasterize_mesh
from repro.render.shading import flat_intensity, gouraud_intensity


def facing_quad(z: float, half: float = 1.0, name="q") -> Mesh:
    return Mesh(
        np.array([[-half, -half, z], [half, -half, z], [half, half, z],
                  [-half, half, z]], dtype=np.float32),
        np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32),
        name=name,
    )


@pytest.fixture
def cam():
    return Camera.looking_at((0, 0, 5), target=(0, 0, 0), up=(0, 1, 0))


class TestCoverage:
    def test_centered_quad_covers_center(self, cam):
        fb = FrameBuffer(64, 64)
        stats = rasterize_mesh(facing_quad(0.0), cam, fb)
        assert stats.faces_rasterized == 2
        assert np.isfinite(fb.depth[32, 32])
        assert fb.coverage() > 0.05

    def test_coverage_scales_with_size(self, cam):
        small = FrameBuffer(64, 64)
        large = FrameBuffer(64, 64)
        rasterize_mesh(facing_quad(0.0, half=0.5), cam, small)
        rasterize_mesh(facing_quad(0.0, half=1.5), cam, large)
        assert large.coverage() > 2 * small.coverage()

    def test_quad_coverage_matches_projection(self, cam):
        """Projected quad area should match rasterized pixel count."""
        fb = FrameBuffer(100, 100)
        rasterize_mesh(facing_quad(0.0), cam, fb)
        screen, _ = cam.project_vertices(facing_quad(0.0).vertices, 100, 100)
        w = screen[:, 0].max() - screen[:, 0].min()
        h = screen[:, 1].max() - screen[:, 1].min()
        covered = np.isfinite(fb.depth).sum()
        assert covered == pytest.approx(w * h, rel=0.08)

    def test_empty_mesh(self, cam):
        fb = FrameBuffer(32, 32)
        stats = rasterize_mesh(
            Mesh(np.zeros((0, 3)), np.zeros((0, 3), np.int32)), cam, fb)
        assert stats.faces_in == 0
        assert fb.coverage() == 0.0

    def test_depth_values_are_view_distance(self, cam):
        fb = FrameBuffer(64, 64)
        rasterize_mesh(facing_quad(0.0), cam, fb)
        assert fb.depth[32, 32] == pytest.approx(5.0, abs=0.01)


class TestOcclusion:
    def test_nearer_quad_wins(self, cam):
        fb = FrameBuffer(64, 64)
        near = facing_quad(2.0)
        far = facing_quad(0.0)
        far_c = Mesh(far.vertices, far.faces,
                     colors=np.tile([1.0, 0, 0], (4, 1)).astype(np.float32))
        near_c = Mesh(near.vertices, near.faces,
                      colors=np.tile([0, 1.0, 0], (4, 1)).astype(np.float32))
        rasterize_mesh(merge_meshes([far_c, near_c]), cam, fb,
                       shading="none")
        # center pixel must be green (near quad) regardless of draw order
        r, g, b = fb.color[32, 32]
        assert g > r

    def test_order_independence(self, cam):
        fb1 = FrameBuffer(64, 64)
        fb2 = FrameBuffer(64, 64)
        a = facing_quad(0.0)
        b = facing_quad(2.0, half=0.5)
        rasterize_mesh(a, cam, fb1)
        rasterize_mesh(b, cam, fb1)
        rasterize_mesh(b, cam, fb2)
        rasterize_mesh(a, cam, fb2)
        assert np.array_equal(fb1.depth, fb2.depth)
        assert fb1.mean_abs_diff(fb2) < 1.0

    def test_accumulates_across_calls(self, cam):
        fb = FrameBuffer(64, 64)
        rasterize_mesh(facing_quad(0.0, half=0.3), cam, fb)
        cov1 = fb.coverage()
        rasterize_mesh(facing_quad(-1.0, half=1.2), cam, fb)
        assert fb.coverage() > cov1


class TestCulling:
    def test_behind_camera_culled(self, cam):
        fb = FrameBuffer(32, 32)
        stats = rasterize_mesh(facing_quad(10.0), cam, fb)  # behind z=5 cam
        assert stats.faces_culled_near == 2
        assert fb.coverage() == 0.0

    def test_offscreen_culled(self, cam):
        fb = FrameBuffer(32, 32)
        stats = rasterize_mesh(
            facing_quad(0.0).translated((100, 0, 0)), cam, fb)
        assert stats.faces_culled_offscreen == 2

    def test_backface_culling(self, cam):
        fb = FrameBuffer(32, 32)
        quad = facing_quad(0.0)
        flipped = Mesh(quad.vertices, quad.faces[:, ::-1])
        s1 = rasterize_mesh(quad, cam, fb, cull_backfaces=True)
        s2 = rasterize_mesh(flipped, cam, fb, cull_backfaces=True)
        # exactly one orientation survives
        assert {s1.faces_rasterized, s2.faces_rasterized} == {0, 2}

    def test_degenerate_faces_skipped(self, cam):
        fb = FrameBuffer(32, 32)
        m = Mesh(np.zeros((3, 3), np.float32),
                 np.array([[0, 1, 2]], np.int32))
        stats = rasterize_mesh(m, cam, fb)
        assert stats.faces_rasterized == 0

    def test_stats_add_up(self, cam):
        fb = FrameBuffer(32, 32)
        mesh = merge_meshes([facing_quad(0.0), facing_quad(10.0),
                             facing_quad(0.0).translated((100, 0, 0))])
        s = rasterize_mesh(mesh, cam, fb)
        assert (s.faces_rasterized + s.faces_culled_near
                + s.faces_culled_backface + s.faces_culled_offscreen
                == s.faces_in)


class TestShading:
    def test_flat_intensity_range(self, small_galleon):
        i = flat_intensity(small_galleon)
        assert (i >= 0).all() and (i <= 1).all()
        assert i.std() > 0.01     # actual variation over the hull

    def test_gouraud_intensity_range(self, small_galleon):
        i = gouraud_intensity(small_galleon)
        assert (i >= 0).all() and (i <= 1).all()

    def test_light_direction_changes_shading(self, small_galleon):
        a = flat_intensity(small_galleon, light_direction=(-1, 0, 0))
        b = flat_intensity(small_galleon, light_direction=(0, 0, -1))
        assert not np.allclose(a, b)

    def test_zero_light_rejected(self, small_galleon):
        with pytest.raises(ValueError):
            flat_intensity(small_galleon, light_direction=(0, 0, 0))

    def test_facing_quad_fully_lit_head_on(self, cam):
        quad = facing_quad(0.0)
        i = flat_intensity(quad, light_direction=(0, 0, -1))
        assert np.allclose(i, 1.0)

    def test_gouraud_rendering_smooth(self, cam, small_galleon):
        flat_fb = FrameBuffer(96, 96)
        smooth_fb = FrameBuffer(96, 96)
        cam2 = Camera.looking_at((2.2, 1.4, 1.2))
        rasterize_mesh(small_galleon, cam2, flat_fb, shading="flat")
        rasterize_mesh(small_galleon, cam2, smooth_fb, shading="gouraud")
        mask = np.isfinite(flat_fb.depth) & np.isfinite(smooth_fb.depth)
        assert mask.sum() > 100

        def roughness(fb):
            g = fb.color[..., 0].astype(float)
            return np.abs(np.diff(g, axis=1))[mask[:, 1:]].mean()

        assert roughness(smooth_fb) <= roughness(flat_fb)

    def test_vertex_colors_interpolated(self, cam):
        quad = facing_quad(0.0)
        # vertices 0,1 are the bottom edge (red); 2,3 the top (blue)
        colors = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1], [0, 0, 1]],
                          dtype=np.float32)
        m = Mesh(quad.vertices, quad.faces, colors)
        fb = FrameBuffer(64, 64)
        rasterize_mesh(m, cam, fb, shading="none")
        # the quad spans roughly ±15 px around the 64x64 center
        top = fb.color[22, 32]       # image top = world +y = blue
        bottom = fb.color[42, 32]    # image bottom = world -y = red
        assert np.isfinite(fb.depth[22, 32]) and np.isfinite(fb.depth[42, 32])
        assert int(bottom[0]) > int(top[0])    # red fades upward
        assert int(top[2]) > int(bottom[2])    # blue fades downward

    def test_unknown_shading_mode(self, cam, quad):
        with pytest.raises(RenderError):
            rasterize_mesh(quad, cam, FrameBuffer(8, 8), shading="phong")

    def test_bad_base_color(self, cam, quad):
        with pytest.raises(RenderError):
            rasterize_mesh(quad, cam, FrameBuffer(8, 8), base_color=(1, 2))


class TestChunking:
    def test_small_fragment_budget_same_result(self, cam, small_galleon):
        """Chunked processing must be invisible in the output."""
        cam2 = Camera.looking_at((2.2, 1.4, 1.2))
        fb_big = FrameBuffer(64, 64)
        fb_small = FrameBuffer(64, 64)
        rasterize_mesh(small_galleon, cam2, fb_big)
        rasterize_mesh(small_galleon, cam2, fb_small, max_fragments=5_000)
        assert np.array_equal(fb_big.depth, fb_small.depth)
        assert fb_big.mean_abs_diff(fb_small) < 0.5

    def test_giant_triangle_close_up(self):
        """A triangle whose bbox exceeds every bucket still renders."""
        cam = Camera.looking_at((0, 0, 0.4), target=(0, 0, 0))
        fb = FrameBuffer(600, 600)
        tri = Mesh(
            np.array([[-5, -5, 0], [5, -5, 0], [0, 5, 0]], np.float32),
            np.array([[0, 1, 2]], np.int32))
        stats = rasterize_mesh(tri, cam, fb)
        assert stats.faces_rasterized == 1
        assert fb.coverage() > 0.5


# -- oracle: brute-force reference rasterizer ---------------------------------

def _unproject(cam: Camera, width: int, height: int, sx, sy, depth):
    """World points that ``cam`` (on +z, looking at the origin, y up)
    projects to screen ``(sx, sy)`` at view distance ``depth``."""
    f = 1.0 / np.tan(np.radians(cam.fov_degrees) / 2.0)
    x = (2.0 * sx / width - 1.0) * depth * (width / height) / f
    y = (1.0 - 2.0 * sy / height) * depth / f
    return np.stack([x, y, cam.position[2] - depth], axis=-1)


def _oracle_mesh(seed: int, width: int, height: int, cam: Camera,
                 textured: bool) -> Mesh:
    """A seeded triangle soup mixing every rasterizer regime.

    Triangles are placed in screen space, then unprojected: sub-pixel
    faces, slivers, large faces, faces clamped at the right/bottom edge
    and partly or wholly off-screen, faces behind the near plane, and
    exact duplicates in other colors (depth ties).
    """
    rng = np.random.default_rng(seed)
    W, H = width, height

    def around(centres, spread):
        return centres[:, None, :] + rng.uniform(
            -spread, spread, (len(centres), 3, 2))

    def anywhere(n, margin):
        return np.stack([rng.uniform(-margin, W + margin, n),
                         rng.uniform(-margin, H + margin, n)], axis=1)

    tris = [around(anywhere(240, 1.5), 0.9),           # sub-pixel
            around(anywhere(12, 6.0), 14.0)]           # large
    # slivers: a long edge and a third vertex just off its midpoint
    a = anywhere(16, 2.0)
    b = a + rng.uniform(-25.0, 25.0, a.shape)
    normal = np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    tris.append(np.stack([a, b, (a + b) / 2 + 0.05 * normal], axis=1))
    # small faces straddling the right and bottom edges
    right = np.stack([rng.uniform(W - 3.0, W + 0.5, 30),
                      rng.uniform(0.0, H, 30)], axis=1)
    bottom = np.stack([rng.uniform(0.0, W, 30),
                       rng.uniform(H - 3.0, H + 0.5, 30)], axis=1)
    tris += [right[:, None, :] + rng.uniform(0.0, 4.0, (30, 3, 2)),
             bottom[:, None, :] + rng.uniform(0.0, 4.0, (30, 3, 2))]
    # faces whose clamped box is 3 px but covers 3 pixel centres
    mx, my = W // 2, H // 2
    tris.append(np.array([
        [[W - 2.8, my + 0.1], [W + 6.0, my + 1.0], [W - 2.8, my + 1.9]],
        [[mx + 0.1, H - 2.8], [mx + 1.0, H + 6.0], [mx + 1.9, H - 2.8]]]))
    screen = np.concatenate(tris)                      # (n, 3, 2)
    depth = rng.uniform(2.0, 4.5, screen.shape[:2])
    depth[rng.choice(len(depth), 6, replace=False), 0] = 0.01  # near cull
    # exact duplicates of some faces: same positions, other colors
    dup = rng.choice(len(screen), 20, replace=False)
    screen = np.concatenate([screen, screen[dup]])
    depth = np.concatenate([depth, depth[dup]])

    vertices = _unproject(cam, W, H, screen[..., 0], screen[..., 1],
                          depth).reshape(-1, 3)
    faces = np.arange(len(vertices), dtype=np.int32).reshape(-1, 3)
    faces = faces[rng.permutation(len(faces))]
    colors = rng.uniform(0.0, 1.0, vertices.shape)
    if not textured:
        return Mesh(vertices, faces, colors=colors)
    image = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    return Mesh(vertices, faces, uv=rng.uniform(0.0, 1.0, (len(vertices), 2)),
                texture=Texture(image))


def _reference_rasterize(mesh: Mesh, cam: Camera, fb: FrameBuffer,
                         shading: str, cull_backfaces: bool) -> tuple:
    """Brute force: every pixel centre of each face's clamped box.

    Faces run one at a time in the stable order of their clamped box
    size, each with the same edge functions and the same two-pass
    depth/color update as the vectorized rasterizer.
    """
    W, H = fb.width, fb.height
    screen, w = cam.project_vertices(mesh.vertices, W, H)
    textured = mesh.texture is not None
    if textured:
        intensity = gouraud_intensity(mesh)
    elif shading == "flat":
        face_rgb = (flat_intensity(mesh)[:, None]
                    * mesh.colors[mesh.faces].mean(axis=1) * 255.0)
    else:
        vert_rgb = (gouraud_intensity(mesh)[:, None]
                    * mesh.colors.astype(np.float64) * 255.0)
    n_near = n_back = n_off = 0
    boxes = []
    for f, tri in enumerate(mesh.faces):
        (x0, y0, _), (x1, y1, _), (x2, y2, _) = screen[tri]
        if not (w[tri] > cam.near).all():
            n_near += 1
            continue
        a = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        facing = a < -1e-12 if cull_backfaces else abs(a) > 1e-12
        if not facing:
            n_back += 1
            continue
        box = (np.floor(min(x0, x1, x2)), np.ceil(max(x0, x1, x2)),
               np.floor(min(y0, y1, y2)), np.ceil(max(y0, y1, y2)))
        if box[1] < 0 or box[0] >= W or box[3] < 0 or box[2] >= H:
            n_off += 1
            continue
        bx0, bx1 = (int(np.clip(v, 0, W - 1)) for v in box[:2])
        by0, by1 = (int(np.clip(v, 0, H - 1)) for v in box[2:])
        boxes.append((max(bx1 - bx0, by1 - by0) + 1, f, a,
                      (bx0, bx1, by0, by1)))
    depth_flat = fb.depth.reshape(-1)
    color_flat = fb.color.reshape(-1, 3)
    fragments = 0
    for _, f, a, (bx0, bx1, by0, by1) in sorted(boxes, key=lambda b: b[0]):
        tri = mesh.faces[f]
        (x0, y0, _), (x1, y1, _), (x2, y2, _) = screen[tri]
        py, px = np.mgrid[by0:by1 + 1, bx0:bx1 + 1]
        cx, cy = px + 0.5, py + 0.5
        l0 = (x1 - x0) * (cy - y0) - (y1 - y0) * (cx - x0)
        l1 = (x2 - x1) * (cy - y1) - (y2 - y1) * (cx - x1)
        l2 = (x0 - x2) * (cy - y2) - (y0 - y2) * (cx - x2)
        inv_a = 1.0 / a
        b0, b1, b2 = l1 * inv_a, l2 * inv_a, l0 * inv_a
        inside = (b0 >= 0) & (b1 >= 0) & (b2 >= 0)
        fragments += int(inside.sum())
        b0, b1, b2 = b0[inside], b1[inside], b2[inside]
        iw = 1.0 / w[tri]
        z = (1.0 / (b0 * iw[0] + b1 * iw[1] + b2 * iw[2])).astype(np.float32)
        pix = (py * W + px)[inside]
        np.minimum.at(depth_flat, pix, z)
        won = depth_flat[pix] == z
        b0, b1, b2 = b0[won], b1[won], b2[won]
        if textured:
            uv = mesh.uv[tri].astype(np.float64)
            u = b0 * uv[0, 0] + b1 * uv[1, 0] + b2 * uv[2, 0]
            v = b0 * uv[0, 1] + b1 * uv[1, 1] + b2 * uv[2, 1]
            vi = intensity[tri]
            rgb = (mesh.texture.sample(u % 1.0, v % 1.0)
                   * (b0 * vi[0] + b1 * vi[1] + b2 * vi[2])[:, None])
        elif shading == "flat":
            rgb = np.broadcast_to(face_rgb[f], (int(won.sum()), 3))
        else:
            vr = vert_rgb[tri]
            rgb = (b0[:, None] * vr[0] + b1[:, None] * vr[1]
                   + b2[:, None] * vr[2])
        color_flat[pix[won]] = np.clip(rgb, 0.0, 255.0).astype(np.uint8)
    n_in = len(mesh.faces)
    return (n_in, n_near, n_back, n_off, n_in - n_near - n_back - n_off,
            fragments)


class TestOracle:
    """The vectorized rasterizer equals a brute-force per-face loop."""

    @pytest.mark.parametrize("width,height", [(48, 40), (37, 29)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shading,cull", [
        ("flat", False), ("gouraud", False), ("textured", False),
        ("flat", True)])
    def test_matches_brute_force(self, seed, width, height, shading, cull):
        cam = Camera.looking_at((0, 0, 5), target=(0, 0, 0), up=(0, 1, 0))
        mesh = _oracle_mesh(seed, width, height, cam,
                            textured=shading == "textured")
        mode = "gouraud" if shading == "textured" else shading
        got, want = FrameBuffer(width, height), FrameBuffer(width, height)
        stats = rasterize_mesh(mesh, cam, got, shading=mode,
                               cull_backfaces=cull)
        expected = _reference_rasterize(mesh, cam, want, mode, cull)
        assert (stats.faces_in, stats.faces_culled_near,
                stats.faces_culled_backface, stats.faces_culled_offscreen,
                stats.faces_rasterized, stats.fragments) == expected
        assert np.array_equal(got.depth, want.depth)
        assert np.array_equal(got.color, want.color)
