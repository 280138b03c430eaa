"""Differentiation engine: op semantics, adjoints vs finite differences,
tape discipline, Adam, and the checkpoint format."""

import itertools

import numpy as np
import pytest

from posefusion import tensorgrad as tg
from posefusion.fusion import soft_center_stack
from posefusion.gradcheck import op_gradient_errors
from posefusion.tensorgrad import (
    AdamState,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    TensorGradError,
    adam_step,
    backward,
    finite_difference_check,
    load_checkpoint,
    save_checkpoint,
)


class TestForwardSemantics:
    def test_relu(self):
        out = tg.relu(None, Tensor([-1.5, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_relu_raises_on_nan(self):
        # a NaN input stays NaN, so relu raises as every op does, rather
        # than passing on a 0
        with pytest.raises(NonFiniteError, match="'relu'"):
            tg.relu(None, Tensor([np.nan, -1.0, 2.0]))

    def test_relu_gives_the_bits_of_the_gated_copy(self, rng):
        # np.maximum and np.where on the gate x > 0 agree bitwise, zeros
        # included; the vjp builds the gate when it runs
        x = rng.normal(size=(4, 5, 6))
        x[0, 0, :3] = 0.0
        tape, xt = Tape(), Tensor(x, requires_grad=True)
        out = tg.relu(tape, xt)
        assert out.values.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        g = rng.normal(size=x.shape)
        (gx,) = tape._nodes[0].vjp(g)
        assert gx.tobytes() == (g * (x > 0)).tobytes()

    def test_conv2d_delta_input_reproduces_flipped_kernel(self, rng):
        # cross-correlation: a unit impulse paints the kernel rotated 180deg
        kernel = rng.normal(size=(1, 1, 3, 3))
        x = np.zeros((1, 7, 9))
        x[0, 3, 4] = 1.0
        y = tg.conv2d(None, Tensor(x), Tensor(kernel), Tensor(np.zeros(1))).values
        np.testing.assert_allclose(y[0, 2:5, 3:6], kernel[0, 0, ::-1, ::-1], atol=1e-15)

    def test_conv2d_shape_errors(self):
        with pytest.raises(ShapeError):
            tg.conv2d(None, Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 5, 3, 3))),
                      Tensor(np.zeros(3)))
        args = Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros(3))
        with pytest.raises(ShapeError, match="pad"):
            tg.conv2d(None, *args, (2, 0, 0, 0))
        with pytest.raises(ShapeError, match="no output"):
            tg.conv2d(None, Tensor(np.zeros((2, 2, 4))), *args[1:], (0, 0, 1, 1))

    def test_conv2d_padding_selects_slice_of_same_size_output(self, rng):
        # a side run "valid" drops the border row or column the zero
        # padding would have produced, and leaves the rest as it was
        x = Tensor(rng.normal(size=(4, 9, 11)))
        w, b = Tensor(rng.normal(size=(5, 4, 3, 3))), Tensor(rng.normal(size=5))
        full = tg.conv2d(None, x, w, b).values
        for pad in itertools.product((0, 1), repeat=4):
            top, bottom, left, right = pad
            got = tg.conv2d(None, x, w, b, pad).values
            want = full[:, 1 - top:9 - 1 + bottom, 1 - left:11 - 1 + right]
            assert got.shape == want.shape, pad
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=str(pad))

    def test_conv2d_image_gradient_is_transpose_of_dense_matrix(self, rng):
        # columns of the dense map are the outputs of unit impulses (no
        # bias); the image gradient of a cotangent g must be its transpose
        # applied to g, for every padding
        w, zero = Tensor(rng.normal(size=(3, 2, 3, 3))), Tensor(np.zeros(3))
        shape = (2, 5, 6)
        for pad in ((1, 1, 1, 1), (0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)):
            columns = []
            for k in range(int(np.prod(shape))):
                impulse = np.zeros(shape)
                impulse.flat[k] = 1.0
                columns.append(tg.conv2d(None, Tensor(impulse), w, zero, pad).values.ravel())
            dense = np.stack(columns, axis=1)
            tape = Tape()
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            y = tg.conv2d(tape, x, w, zero, pad)
            g = rng.normal(size=y.shape)
            gx = tape._nodes[0].vjp(g)[0]
            np.testing.assert_allclose(gx.ravel(), dense.T @ g.ravel(), rtol=0,
                                       atol=1e-13 * np.abs(dense.T @ g.ravel()).max(),
                                       err_msg=str(pad))

    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tg.add(None, Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_nan_production_is_an_error_naming_the_op(self):
        big = Tensor(np.array([1e308]))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="multiply"):
                tg.multiply(None, big, big)


def _im2col(a, pad):
    c, h, w = a.shape
    top, bottom, left, right = pad
    padded = np.zeros((c, h + top + bottom, w + left + right))
    padded[:, top:top + h, left:left + w] = a
    ho, wo = padded.shape[1] - 2, padded.shape[2] - 2
    return np.stack([padded[:, ki:ki + ho, kj:kj + wo] for ki in range(3) for kj in range(3)],
                    axis=1).reshape(c * 9, ho * wo)


def _im2col_conv(x, weight, bias, pad, g):
    """Reference: the conv as one gemm against the patch matrix, its image
    gradient that of the upstream gradient, zero-padded by 2 - pad, with
    the flipped kernel. Returns y and the x, weight and bias gradients."""
    c_out, c_in = weight.shape[:2]
    cols = _im2col(x, pad)
    y = (weight.reshape(c_out, -1) @ cols + bias[:, None]).reshape(g.shape)
    gmat = g.reshape(c_out, -1)
    flipped = weight[:, :, ::-1, ::-1].swapaxes(0, 1).reshape(c_in, c_out * 9)
    gx = (flipped @ _im2col(g, tuple(2 - p for p in pad))).reshape(x.shape)
    return y, gx, (gmat @ cols.T).reshape(weight.shape), gmat.sum(axis=1)


class TestShiftedConvolution:
    """The kernel without a patch matrix regroups the im2col sums. Over
    20 seeds of these shapes, and up to 48x40, it differed by at most
    1.8e-15 of the largest value in y, the image gradient and the weight
    gradient; the bias gradient is the same sum."""

    BOUND = 2e-15

    @pytest.mark.parametrize("c_in, c_out", [(5, 10), (5, 16), (16, 10), (16, 16)])
    def test_matches_im2col_for_every_padding(self, c_in, c_out):
        rng = np.random.default_rng(c_in * 100 + c_out)
        # (1, 9) and (2, 7) give 1-row outputs for some pads, (3, 3) a 1x1
        for h, w in ((1, 9), (2, 7), (3, 3), (7, 5), (9, 13), (31, 27)):
            for pad in itertools.product((0, 1), repeat=4):
                top, bottom, left, right = pad
                if h + top + bottom < 3 or w + left + right < 3:
                    continue
                x = rng.normal(size=(c_in, h, w))
                weight, bias = rng.normal(size=(c_out, c_in, 3, 3)), rng.normal(size=c_out)
                g = rng.normal(size=(c_out, h + top + bottom - 2, w + left + right - 2))
                want = _im2col_conv(x, weight, bias, pad, g)
                y, vjp = tg._conv_shifted(x, weight, bias, pad)
                got = (y, *vjp(g, True))
                where = f"{(h, w)} pad {pad}"
                for name, a, b in zip(("y", "gx", "gw"), got, want):
                    assert a.shape == b.shape, (name, where)
                    assert np.abs(a - b).max() <= self.BOUND * np.abs(b).max(), (name, where)
                np.testing.assert_array_equal(got[3], want[3], err_msg=where)

    def test_bias_on_the_buffer_gives_the_bits_of_the_cropped_sum(self, rng):
        # the bias is added before the wrap-around columns are dropped
        for pad in ((1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 0, 0)):
            x, weight, bias = (rng.normal(size=(16, 9, 11)), rng.normal(size=(10, 16, 3, 3)),
                               rng.normal(size=10))
            xp, wp = tg._pad_flat(x, pad)
            taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(9, 10, 16)
            ho, wo = 9 + pad[0] + pad[1] - 2, 11 + pad[2] + pad[3] - 2
            want = tg._shifted_sum(taps, xp, wp, ho)[:, :, :wo] + bias[:, None, None]
            y, _vjp = tg._conv_shifted(x, weight, bias, pad)
            assert y.shape == want.shape and y.tobytes() == want.tobytes(), pad

    @pytest.mark.parametrize("c_in, kernel", [(5, "_conv_im2col"), (16, "_conv_shifted")])
    def test_conv2d_chooses_kernel_by_input_channels(self, rng, c_in, kernel):
        x, weight, bias = (rng.normal(size=(c_in, 6, 7)), rng.normal(size=(4, c_in, 3, 3)),
                           rng.normal(size=4))
        tape = Tape()
        xt, wt = Tensor(x, requires_grad=True), Tensor(weight, requires_grad=True)
        y = tg.conv2d(tape, xt, wt, Tensor(bias), (0, 1, 1, 0))
        want_y, vjp = getattr(tg, kernel)(x, weight, bias, (0, 1, 1, 0))
        g = rng.normal(size=y.shape)
        np.testing.assert_array_equal(y.values, want_y)
        for a, b in zip(tape._nodes[0].vjp(g), vjp(g, True)):
            np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_square_gradient(self):
        tape = Tape()
        x = Tensor(3.0, requires_grad=True)
        y = tg.multiply(tape, x, x)
        assert backward(tape, y)[x] == pytest.approx(6.0)

    def test_constant_has_no_gradient(self):
        tape = Tape()
        x = Tensor(3.0, requires_grad=True)
        const = Tensor(5.0)
        _ = tg.multiply(tape, const, const)
        y = tg.multiply(tape, x, Tensor(2.0))
        grads = backward(tape, y)
        assert grads[x] == pytest.approx(2.0)
        assert const not in grads

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = Tensor(np.ones(3), requires_grad=True)
        y = tg.add(tape, x, x)
        with pytest.raises(TensorGradError, match="scalar"):
            backward(tape, y)

    def test_tape_consumed_once(self):
        tape = Tape()
        x = Tensor(2.0, requires_grad=True)
        y = tg.multiply(tape, x, x)
        backward(tape, y)
        with pytest.raises(TensorGradError, match="consumed"):
            backward(tape, y)
        with pytest.raises(TensorGradError, match="consumed"):
            tg.multiply(tape, x, x)

    def test_conv2d_skips_image_gradient_only(self, rng):
        # an input that needs no gradient gets none computed; the parameter
        # gradients are bitwise those of a run that also computes it
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        image = rng.normal(size=(2, 6, 7))
        weights = Tensor(rng.normal(size=(3, 6, 7)))

        def run(image_grad):
            tape = Tape()
            x = Tensor(image, requires_grad=image_grad)
            y = tg.relu(tape, tg.conv2d(tape, x, w, b))
            node = tape._nodes[0]
            gx = node.vjp(np.ones(y.shape))[0]
            grads = backward(tape, tg.mean(tape, tg.multiply(tape, y, weights)))
            return x in grads, gx is None, grads

        on, off = run(True), run(False)
        assert on[:2] == (True, False) and off[:2] == (False, True)
        on, off = on[2], off[2]
        np.testing.assert_array_equal(on[w], off[w])
        np.testing.assert_array_equal(on[b], off[b])

    def test_no_double_counting_linearity(self, rng):
        # grad of (f + f) must equal exactly twice grad of f
        v = rng.normal(size=7)

        def run(doubled):
            tape = Tape()
            x = Tensor(v.copy(), requires_grad=True)
            f = tg.euclidean_norm(tape, tg.multiply(tape, x, Tensor(np.arange(7.0))))
            loss = tg.add(tape, f, f) if doubled else f
            return backward(tape, loss)[x]

        np.testing.assert_allclose(run(True), 2.0 * run(False), rtol=0, atol=1e-15)

    def test_gradient_of_softmax_weighted_sum_matches_fd(self, rng):
        # a node registered through Tape.record: the fused softmax centre
        coords = rng.normal(size=(9, 3))
        direction = rng.normal(size=(1, 3))

        def fn(tape, v):
            w = soft_center_stack(tape, [v], [coords])
            return tg.mean(tape, tg.multiply(tape, w, Tensor(direction * 3.0)))

        err = finite_difference_check(fn, Tensor(rng.normal(size=(1, 9))), 1e-6)
        assert err < 1e-6


class TestFiniteDifferenceOracle:
    def test_quadratic_form(self, rng):
        # <K v, v> for the linear map K of a bias-free convolution
        kernel, zero = Tensor(rng.normal(size=(1, 1, 3, 3))), Tensor(np.zeros(1))

        def fn(tape, v):
            kv = tg.conv2d(tape, v, kernel, zero)
            return tg.mean(tape, tg.multiply(tape, kv, v))

        err = finite_difference_check(fn, Tensor(rng.normal(size=(1, 4, 5))), 1e-6)
        assert err < 1e-8

    def test_zero_function(self):
        def fn(tape, v):
            return tg.mean(tape, tg.multiply(tape, v, Tensor(np.zeros(4))))

        assert finite_difference_check(fn, Tensor(np.ones(4)), 1e-6) == 0.0

    def test_every_op_under_tolerance(self):
        errors = op_gradient_errors(seed=0)
        for name, err in errors.items():
            assert err < 1e-6, f"{name}: {err}"

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda tp, v: tg.mean(tp, v), Tensor(np.ones(2)), 0.0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = AdamState(lr=1e-3)
        adam_step(p, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(p["w"].values, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_magnitude_is_lr_times_sign(self):
        g = np.array([0.3, -0.004, 2.0])
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        adam_step(p, {"w": g}, AdamState(lr=1e-3))
        # bias-corrected first step: lr * g / (|g| + eps') ~ lr * sign(g)
        np.testing.assert_allclose(p["w"].values, -1e-3 * np.sign(g), rtol=1e-4)

    def test_two_steps_decrease_quadratic(self):
        p = {"x": Tensor(np.array([2.0]), requires_grad=True)}
        state = AdamState(lr=1e-2)
        for _ in range(2):
            adam_step(p, {"x": 2.0 * p["x"].values}, state)
        assert float(p["x"].values[0] ** 2) < 4.0

    def test_shape_mismatch_rejected(self):
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        with pytest.raises(ShapeError):
            adam_step(p, {"w": np.zeros(4)}, AdamState())

    def test_defaults(self):
        s = AdamState()
        assert (s.lr, s.beta1, s.beta2, s.eps) == (1e-3, 0.9, 0.999, 1e-8)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        params = {
            "conv1_w": Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True),
            "bias": Tensor(rng.normal(size=4), requires_grad=True),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, extra={"mode": "proposed-3d"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"mode": "proposed-3d"}
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k].values, params[k].values)
            assert loaded[k].requires_grad

    def test_header_is_json_line_then_le_doubles(self, tmp_path):
        params = {"w": Tensor(np.array([1.5, -2.25]), requires_grad=True)}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        import json
        doc = json.loads(header)
        assert doc["params"] == [{"name": "w", "shape": [2]}]
        np.testing.assert_array_equal(np.frombuffer(payload, dtype="<f8"), [1.5, -2.25])

    def test_truncated_payload_rejected(self, tmp_path):
        params = {"w": Tensor(np.zeros(8), requires_grad=True)}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TensorGradError, match="truncated"):
            load_checkpoint(path)
