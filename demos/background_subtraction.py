"""Splitting an image sequence into a static background and moving foreground.

Synthesizes a small graymap sequence (a textured scene with a bright block
sliding across it), stacks the vectorized frames as matrix columns, and
lets the rank-1 factored decomposition separate scene from motion.  The
solve stops at the rounding floor of the 8-bit frames, as the
``background`` command does (``FrameStack.stop_tol``).  The per-frame
images land in ``demo_output/background_subtraction/``.
"""

from pathlib import Path

import numpy as np

import robustpca as rp

HEIGHT, WIDTH, FRAMES, SEED = 48, 64, 20, 0


def synthesize_frames(directory):
    rng = np.random.default_rng(SEED)
    scene = rng.integers(60, 160, (HEIGHT, WIDTH)).astype(np.uint8)
    directory.mkdir(parents=True, exist_ok=True)
    for j in range(FRAMES):
        frame = scene.copy()
        left = 4 + 2 * j
        frame[20:30, left : left + 8] = 245  # the moving object
        rp.write_pgm(directory / ("frame_%03d.pgm" % j), frame)
    return scene


def main():
    out = Path("demo_output/background_subtraction")
    frames_dir = out / "frames"
    scene = synthesize_frames(frames_dir)

    stack = rp.load_frame_stack(frames_dir, downsample_factor=1)
    print("stacked %d frames into a %dx%d matrix" % (
        len(stack.frame_names), *stack.matrix.shape))

    cfg = rp.SolverConfig(k=1, tol=stack.stop_tol(rp.SolverConfig.tol))
    factors, s, report = rp.solve_fffp(stack.matrix, cfg)
    low_rank = factors.dense()
    print("rank %d background, residual %.2e after %d iterations"
          % (report.final_rank, report.final_residual, report.iterations))

    foreground = np.abs(s)
    for j, name in enumerate(stack.frame_names):
        stem = Path(name).stem
        rp.write_frame(low_rank[:, j], stack.frame_height, stack.frame_width,
                       out / ("background_%s.pgm" % stem))
        rp.write_frame(foreground[:, j], stack.frame_height, stack.frame_width,
                       out / ("foreground_%s.pgm" % stem))

    recovered = low_rank[:, 0].reshape((HEIGHT, WIDTH), order="F")
    print("background error vs the true scene: %.2f gray levels (max)"
          % np.abs(recovered - scene).max())
    print("foreground mass concentrates on the moving block: %.0f%% of its "
          "energy sits inside the block rows"
          % (100 * (foreground.reshape(HEIGHT, WIDTH, FRAMES, order="F")[20:30].sum()
                    / max(foreground.sum(), 1e-12))))
    print("images written under %s" % out)


if __name__ == "__main__":
    main()
