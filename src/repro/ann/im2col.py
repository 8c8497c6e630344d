"""im2col / col2im utilities backing the Conv2D and pooling layers.

A convolution over a channel-first batch ``(N, C, H, W)`` is expressed as a
single matrix multiplication by unfolding every receptive field into a column.
The same unfolding is reused by the pooling layers and by the spiking
convolution layer in :mod:`repro.snn.layers`, which keeps the ANN forward pass
and the SNN per-time-step pass numerically identical for the same weights.

The ANN layers train on these forms:

* :func:`im2col` — the ``(N·out_h·out_w, C·K·K)`` column matrix, a fresh
  row-major array per call, which ``Conv2D`` multiplies by its weights;
* :func:`col2im` — the adjoint fold.  It adds the taps in ``(ky, kx)``
  order into a zeroed channels-last buffer, a few images at a time so the
  block stays in cache, and hands back an NCHW-ordered array;
* :func:`avgpool2x2` — 2×2 / stride-2 average pooling over strided slabs,
  shared by ``AvgPool2D`` and the numpy backend's spiking pool.

The SNN engine uses cached plans, because it unfolds the *same* geometry
hundreds of times (once per simulation step):

* :class:`Im2colPlan` precomputes the output geometry and the strided-window
  view once, owns a reusable padded input buffer and column buffer, and each
  :meth:`~Im2colPlan.fill` is a strided copy with no allocations.  The column
  layout is :func:`im2col`'s, so results are bit-for-bit the same.
* :class:`DirectConvPlan` skips the column matrix entirely for stride-1
  convolutions.  It reads each kernel tap as one flat window of a
  zero-bordered copy of the input, and picks one of two kernels from the
  input channel count alone: inputs of at most four channels gather every tap
  window into one panel and run a single GEMM (per-tap GEMMs of rank 1–3
  waste most of their time in BLAS overhead), and wider inputs run one
  accumulating GEMM per tap over a channels-last halo buffer.  Both
  reassociate the reduction, so the SNN engine uses the plan only on its
  tolerance-based float32 fast path — the float64 exact path stays on
  :class:`Im2colPlan`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.linalg.blas import dgemm as _dgemm, sgemm as _sgemm

#: BLAS GEMMs that can accumulate into their output (``beta=1``), by dtype
_ACCUMULATING_GEMM = {np.dtype(np.float32): _sgemm, np.dtype(np.float64): _dgemm}

#: Widest input, in channels, that :class:`DirectConvPlan` convolves
#: with its single-GEMM panel kernel; wider inputs take the per-tap
#: accumulating kernel.  Kernel times, accumulate vs panel (float32, 3×3
#: kernel, padding 1, 16 images, one BLAS thread, median of 5 processes'
#: best of 40, 2-CPU Xeon with OpenBLAS 0.3.31): 1→8 channels at 28×28 (the
#: MNIST CNN's ``conv_0``) 1363 vs 135 µs; 3→8 at 32×32 (the VGG's
#: ``conv_0``) 1684 vs 445 µs; 4→16 at 16×16 186 vs 156 µs; 8→16 at 14×14
#: (MNIST ``conv_1``) 212 vs 222 µs.  The panel copies the input ``K·K``
#: times, which outgrows the per-tap GEMM overhead it saves between 4 and 8
#: channels.
_PANEL_MAX_CHANNELS = 4

#: Bytes of columns :func:`col2im` folds per block of images.  Folding the
#: seven VGG conv shapes' columns at batch 32 (float64, best of 5, three
#: rounds, 2-CPU Xeon): one image per block 20–26 ms, 512 kB blocks
#: 17–20 ms, 1 MB 16–18 ms, 2 MB 20–22 ms, the whole batch at once 27–29 ms.
_FOLD_BLOCK_BYTES = 1 << 20


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding} gives non-positive output {out}"
        )
    return out


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` of shape (N, C, H, W) into columns.

    Returns
    -------
    cols:
        Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``.
    out_h, out_w:
        Spatial output dimensions.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"im2col expects (N, C, H, W), got shape {x.shape}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        padded[:, :, padding : padding + h, padding : padding + w] = x
    else:
        padded = np.ascontiguousarray(x)

    # A kernel row is ``kernel_w`` contiguous floats of the padded input, so
    # the unfold copies whole rows as single opaque items: a strided
    # (N, out_h, out_w, C, kernel_h) view of rows into the same-shaped view
    # of the row-major columns.  The bytes are those of the element-wise
    # copy, with a kernel_w-times longer inner loop.
    row = np.dtype((np.void, kernel_w * padded.itemsize))
    stride_n, stride_c, stride_h, stride_w = padded.strides
    windows = np.ndarray(
        (n, out_h, out_w, c, kernel_h),
        dtype=row,
        buffer=padded,
        strides=(stride_n, stride_h * stride, stride_w * stride, stride_c, stride_h),
    )
    cols = np.empty((n * out_h * out_w, c * kernel_h * kernel_w))
    cols.view(row).reshape(n, out_h, out_w, c, kernel_h)[...] = windows
    return cols, out_h, out_w


def avgpool2x2(incoming: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2×2 / stride-2 average pooling of ``incoming`` (N, C, H, W) into
    ``out`` (N, C, H // 2, W // 2), returned.

    Adds the window columns in the order (0,0), (0,1), (1,0), (1,1), then
    divides once: the sequential order ``cols.mean(axis=1)`` takes over
    :func:`im2col`'s four-wide columns, so the results are the same bits.
    """
    oh, ow = out.shape[2], out.shape[3]
    np.add(
        incoming[:, :, 0 : oh * 2 : 2, 0 : ow * 2 : 2],
        incoming[:, :, 0 : oh * 2 : 2, 1 : ow * 2 : 2],
        out=out,
    )
    out += incoming[:, :, 1 : oh * 2 : 2, 0 : ow * 2 : 2]
    out += incoming[:, :, 1 : oh * 2 : 2, 1 : ow * 2 : 2]
    out /= 4
    return out


class Im2colPlan:
    """Cached im2col execution plan for a fixed unfold geometry.

    The SNN engine unfolds the same ``(N, C, H, W)`` geometry at every
    simulation step.  This plan computes the geometry once, owns

    * a reusable (padded) input buffer,
    * the strided sliding-window view over that buffer, and
    * a reusable column buffer laid out exactly like :func:`im2col`'s output,

    so that each :meth:`fill` call is two strided copies (input → padded
    buffer, window view → column buffer) with zero allocations.  Column
    values are bit-for-bit identical to ``im2col(x, ...)[0]``.

    Parameters
    ----------
    batch_size, channels, height, width:
        Input geometry (per step), batch dimension included.
    kernel_h, kernel_w, stride, padding:
        Unfold geometry, as in :func:`im2col`.
    dtype:
        dtype of the buffers (the simulation dtype of the owning layer).
    """

    def __init__(
        self,
        batch_size: int,
        channels: int,
        height: int,
        width: int,
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
        dtype: "np.dtype | type" = np.float64,
    ) -> None:
        if batch_size <= 0 or channels <= 0 or height <= 0 or width <= 0:
            raise ValueError(
                f"invalid input geometry ({batch_size}, {channels}, {height}, {width})"
            )
        self.input_shape = (batch_size, channels, height, width)
        self.kernel_h = int(kernel_h)
        self.kernel_w = int(kernel_w)
        self.stride = int(stride)
        self.padding = int(padding)
        self.dtype = np.dtype(dtype)
        self.out_h = conv_output_size(height, kernel_h, stride, padding)
        self.out_w = conv_output_size(width, kernel_w, stride, padding)

        n, c = batch_size, channels
        padded_h = height + 2 * padding
        padded_w = width + 2 * padding
        # Padded input buffer; the zero border is written once and never
        # touched again (fill() only overwrites the interior).
        self._padded = np.zeros((n, c, padded_h, padded_w), dtype=self.dtype)
        if padding > 0:
            self._interior = self._padded[
                :, :, padding : padding + height, padding : padding + width
            ]
        else:
            self._interior = self._padded

        stride_n, stride_c, stride_h, stride_w = self._padded.strides
        windows = np.lib.stride_tricks.as_strided(
            self._padded,
            shape=(n, c, self.out_h, self.out_w, self.kernel_h, self.kernel_w),
            strides=(
                stride_n,
                stride_c,
                stride_h * self.stride,
                stride_w * self.stride,
                stride_h,
                stride_w,
            ),
            writeable=False,
        )
        # Source view in the column ordering (N, out_h, out_w, C, kh, kw); the
        # destination buffer is C-contiguous so its 2-D reshape is a free view.
        self._windows = windows.transpose(0, 2, 3, 1, 4, 5)
        self._cols6 = np.empty(
            (n, self.out_h, self.out_w, c, self.kernel_h, self.kernel_w), dtype=self.dtype
        )
        self.cols = self._cols6.reshape(
            n * self.out_h * self.out_w, c * self.kernel_h * self.kernel_w
        )
        # Copy strategy: one 6-D strided copy, or one 4-D copy per kernel
        # position.  The 6-D iterator wins only for very small channel counts;
        # per-position slabs win everywhere else (and always for pooling,
        # where stride == kernel).  Values are identical either way.
        self._use_slabs = c >= 4 or self.kernel_h * self.kernel_w <= 4
        self._slab_pairs = []
        for ky in range(self.kernel_h):
            for kx in range(self.kernel_w):
                src = self._padded[
                    :,
                    :,
                    ky : ky + self.out_h * self.stride : self.stride,
                    kx : kx + self.out_w * self.stride : self.stride,
                ].transpose(0, 2, 3, 1)
                self._slab_pairs.append((self._cols6[:, :, :, :, ky, kx], src))

    @property
    def num_rows(self) -> int:
        n = self.input_shape[0]
        return n * self.out_h * self.out_w

    def fill(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``x`` into the plan's column buffer and return it.

        The returned array is the plan's reusable buffer: it is overwritten by
        the next ``fill`` call.
        """
        if x.shape != self.input_shape:
            raise ValueError(
                f"im2col plan built for input shape {self.input_shape}, got {x.shape}"
            )
        self._interior[...] = x
        if self._use_slabs:
            for dst, src in self._slab_pairs:
                np.copyto(dst, src)
        else:
            np.copyto(self._cols6, self._windows)
        return self.cols


class DirectConvPlan:
    """Stride-1 direct-convolution plan over a zero-bordered input scratch.

    The im2col form materialises a ``(N·out_h·out_w, C·K·K)`` column matrix
    every step — ``K·K`` times the input's size in writes alone, which is what
    dominates the spiking-conv step at bench scale.  This plan instead reads
    kernel tap ``(ky, kx)`` of a padded ``PH × PW`` image as the contiguous
    flat window starting ``ky·PW + kx`` elements in: window row
    ``r = y·PW + x`` is aligned with output position ``(y, x)``
    *independently of the tap*.  One window spans the whole batch
    (``batch_rows = (N−1)·PH·PW + window_rows`` rows, with
    ``window_rows = (out_h−1)·PW + out_w``); rows that fall in a halo margin
    or between images receive garbage and are never read.

    The input channel count alone picks the kernel, so every float32 result
    is a pure function of the geometry:

    * **panel** (at most ``_PANEL_MAX_CHANNELS`` = 4 channels): the input is
      copied into a channels-first ``(C, N, PH, PW)`` scratch; panel row
      ``(tap, c)`` is the slice of channel ``c``'s flat strip at the tap's
      offset, and one GEMM, ``panel.T @ taps.reshape(K·K·C, out_c)``, yields
      every output row.  Per-tap GEMMs over one to three channels are rank-1
      to rank-3 updates that BLAS runs far below peak; the one deep GEMM is
      4–10× faster at those widths (measurements at the constant);
    * **accumulate** (wider inputs): the input is copied into a channels-last
      ``(N, PH, PW, C)`` halo buffer, so a tap window is a ``(rows, C)``
      matrix, and one ``gemm(beta=1)`` per tap accumulates into the output in
      place — one input transpose plus ``K·K`` reads of the cache-resident
      halo, where the panel would copy the input ``K·K`` times.

    Both kernels reassociate the reduction relative to the canonical
    ``(c, ky, kx)`` im2col ordering, so results match :class:`Im2colPlan` +
    GEMM only to rounding; the simulation engine therefore uses this plan on
    its tolerance-based (float32) path and keeps the canonical plan for the
    float64 exact-match path.  The plan allocates only its own kernel's
    scratch, once, when it is built.
    """

    def __init__(
        self,
        batch_size: int,
        channels: int,
        height: int,
        width: int,
        kernel: int,
        padding: int,
        out_channels: int,
        dtype: "np.dtype | type" = np.float32,
    ) -> None:
        if batch_size <= 0 or channels <= 0 or height <= 0 or width <= 0:
            raise ValueError(
                f"invalid input geometry ({batch_size}, {channels}, {height}, {width})"
            )
        self.input_shape = (batch_size, channels, height, width)
        self.kernel = int(kernel)
        self.padding = int(padding)
        self.out_channels = int(out_channels)
        self.dtype = np.dtype(dtype)
        self.out_h = conv_output_size(height, kernel, 1, padding)
        self.out_w = conv_output_size(width, kernel, 1, padding)
        self.padded_h = height + 2 * padding
        self.padded_w = width + 2 * padding

        n = batch_size
        #: window row count: output row r = y·PW + x for y < out_h, x < out_w
        self.window_rows = (self.out_h - 1) * self.padded_w + self.out_w
        self.batch_rows = (n - 1) * self.padded_h * self.padded_w + self.window_rows
        self._gemm = _ACCUMULATING_GEMM[self.dtype]
        # the output spans the full halo so window and output rows align
        self._zfull = np.empty((n * self.padded_h * self.padded_w, self.out_channels), dtype=self.dtype)
        self._zfull_view = self._zfull.reshape(
            n, self.padded_h, self.padded_w, self.out_channels
        )[:, : self.out_h, : self.out_w, :].transpose(0, 3, 1, 2)
        self._use_panel = channels <= _PANEL_MAX_CHANNELS
        #: the accumulate kernel's flat halo (``None`` for panel plans)
        self._halo_flat: Optional[np.ndarray] = None
        if self._use_panel:
            self._build_panel()
        else:
            self._build_halo()

    def run(
        self,
        x: np.ndarray,
        taps: np.ndarray,
        bias: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Convolve ``x`` (N, C, H, W) with per-tap matrices ``taps``.

        Parameters
        ----------
        x:
            Input batch in the engine's channels-first layout.
        taps:
            ``(K·K, C, out_c)`` stack of tap matrices (``weight[o, c, ky, kx]``
            transposed to ``taps[ky·K + kx, c, o]``).
        bias:
            Optional per-output-channel bias added once.

        Returns
        -------
        The plan's reusable ``(N, out_c, out_h, out_w)`` output view — valid
        until the next ``run``.
        """
        if x.shape != self.input_shape:
            raise ValueError(
                f"direct conv plan built for input shape {self.input_shape}, got {x.shape}"
            )
        c = self.input_shape[1]
        if taps.shape != (self.kernel * self.kernel, c, self.out_channels):
            raise ValueError(
                f"taps shape {taps.shape} does not match "
                f"({self.kernel * self.kernel}, {c}, {self.out_channels})"
            )
        z_rows = self._zfull[: self.batch_rows]
        if self._use_panel:
            self._run_panel(x, taps, z_rows)
        else:
            self._run_accumulate(x, taps, z_rows)
        if bias is not None:
            z_rows += bias
        return self._zfull_view

    def _build_panel(self) -> None:
        """Zeroed channel strips, their interior and tap-window views, and
        the panel scratch (the interior is rewritten every run)."""
        n, c, h, w = self.input_shape
        k, rows, pad = self.kernel, self.batch_rows, self.padding
        strip = n * self.padded_h * self.padded_w
        strips = np.zeros(c * strip, dtype=self.dtype)
        padded = strips.reshape(c, n, self.padded_h, self.padded_w)
        self._interior = padded[:, :, pad : pad + h, pad : pad + w]
        item = strips.itemsize
        # (ky, kx, c, rows) view of every tap window over the strips
        self._windows = np.lib.stride_tricks.as_strided(
            strips,
            shape=(k, k, c, rows),
            strides=(self.padded_w * item, item, strip * item, item),
            writeable=False,
        )
        self._panel = np.empty((k, k, c, rows), dtype=self.dtype)

    def _run_panel(self, x: np.ndarray, taps: np.ndarray, z_rows: np.ndarray) -> None:
        """Copy every tap window into one ``(K·K·C, rows)`` panel and run a
        single GEMM over it."""
        self._interior[...] = x.transpose(1, 0, 2, 3)
        np.copyto(self._panel, self._windows)
        np.matmul(
            self._panel.reshape(-1, self.batch_rows).T,
            taps.reshape(-1, self.out_channels),
            out=z_rows,
        )

    def _build_halo(self) -> None:
        """Zeroed channels-last halo and its interior view (the interior is
        rewritten every run)."""
        n, c, h, w = self.input_shape
        pad = self.padding
        self._halo_flat = np.zeros(n * self.padded_h * self.padded_w * c, dtype=self.dtype)
        halo = self._halo_flat.reshape(n, self.padded_h, self.padded_w, c)
        self._interior = halo[:, pad : pad + h, pad : pad + w, :]

    def _run_accumulate(self, x: np.ndarray, taps: np.ndarray, z_rows: np.ndarray) -> None:
        """One flat window per tap spanning the whole batch; ``gemm(beta=1)``
        accumulates into the (transposed view of the) output in place."""
        # transpose builds the NHWC view directly (moveaxis pays an extra
        # normalisation pass on this hot path)
        self._interior[...] = x.transpose(0, 2, 3, 1)
        c = self.input_shape[1]
        rows = self.batch_rows
        flat = self._halo_flat
        z_t = z_rows.T
        for tap_index in range(self.kernel * self.kernel):
            ky, kx = divmod(tap_index, self.kernel)
            offset = (ky * self.padded_w + kx) * c
            window = flat[offset : offset + rows * c].reshape(rows, c)
            self._gemm(
                1.0,
                taps[tap_index].T,
                window.T,
                beta=0.0 if tap_index == 0 else 1.0,
                c=z_t,
                overwrite_c=1,
            )


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back to an image batch, accumulating overlapping regions.

    This is the adjoint of :func:`im2col` and is used by the convolution and
    max-pooling backward passes.  ``cols`` has :func:`im2col`'s shape
    ``(N * out_h * out_w, C * kernel_h * kernel_w)``.

    Every input pixel starts at zero and receives its taps in ``(ky, kx)``
    order, so the sums are the same bits whatever the blocking.  The taps
    are added into a channels-last buffer, where a tap slab's
    ``(out_w, C)`` rows are contiguous, ``_FOLD_BLOCK_BYTES`` of columns at
    a time; the result is a fresh C-contiguous NCHW array.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    taps = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=np.float64)
    block = max(1, _FOLD_BLOCK_BYTES // (8 * out_h * out_w * c * kernel_h * kernel_w))
    for start in range(0, n, block):
        dst = padded[start : start + block]
        src = taps[start : start + block]
        for ky in range(kernel_h):
            y_max = ky + stride * out_h
            for kx in range(kernel_w):
                x_max = kx + stride * out_w
                dst[:, ky:y_max:stride, kx:x_max:stride, :] += src[:, :, :, :, ky, kx]
    out = np.empty((n, c, h, w), dtype=np.float64)
    np.copyto(out, padded[:, padding : padding + h, padding : padding + w, :].transpose(0, 3, 1, 2))
    return out
