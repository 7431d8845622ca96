import struct

import numpy as np
import pytest

from scaat.data import (
    Dataset,
    LabelRangeError,
    MagicNumberError,
    TruncatedFileError,
    DataFormatError,
    generate_half_informative,
    load_cifar_binary,
    load_dataset,
    load_idx,
    parse_synthetic_spec,
)
from conftest import flip_every_bit


def write_idx_pair(tmp_path, images, labels, magic_img=0x803, magic_lbl=0x801):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, h, w = images.shape
    img_path = tmp_path / "t10k-images-idx3-ubyte"
    lbl_path = tmp_path / "t10k-labels-idx1-ubyte"
    img_path.write_bytes(struct.pack(">IIII", magic_img, n, h, w) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", magic_lbl, len(labels)) + labels.tobytes())
    return img_path, lbl_path


class TestIdx:
    def test_round_trip_and_normalization(self, tmp_path, rng):
        imgs = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        img_path, _ = write_idx_pair(tmp_path, imgs, labels)
        ds = load_idx(img_path, n_classes=3, split="test")
        assert ds.images.shape == (5, 1, 4, 3)
        np.testing.assert_allclose(ds.images[:, 0], imgs / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.split == "test"

    def test_derived_labels_path(self, tmp_path, rng):
        img_path, lbl_path = write_idx_pair(tmp_path, rng.integers(0, 255, (2, 2, 2), dtype=np.uint8), [1, 0])
        assert load_idx(img_path, n_classes=2).labels.tolist() == [1, 0]

    def test_magic_mismatch(self, tmp_path):
        img_path, _ = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0], magic_img=0x802)
        with pytest.raises(MagicNumberError, match="0x00000802"):
            load_idx(img_path, n_classes=2)

    def test_truncated_image_data(self, tmp_path):
        img_path, _ = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        blob = img_path.read_bytes()
        img_path.write_bytes(blob[:-5])
        with pytest.raises(TruncatedFileError):
            load_idx(img_path, n_classes=2)

    @pytest.mark.parametrize("which", ["images", "labels"])
    @pytest.mark.parametrize("count", [2**31, 0xFFFFFFFF])
    def test_header_size_beyond_file(self, tmp_path, which, count):
        # a corrupt count is checked against the file's size before any
        # read: taken at its word, it would ask read() for gigabytes
        img_path, lbl_path = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        if which == "images":
            dims = (count, count, count) if count == 0xFFFFFFFF else (count, 3, 3)
            img_path.write_bytes(struct.pack(">IIII", 0x803, *dims) + img_path.read_bytes()[16:])
        else:
            lbl_path.write_bytes(struct.pack(">II", 0x801, count) + lbl_path.read_bytes()[8:])
        with pytest.raises(TruncatedFileError, match=f"idx {which[:-1]} data: expected"):
            load_idx(img_path, n_classes=2)

    def test_label_out_of_range(self, tmp_path):
        img_path, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 9])
        with pytest.raises(LabelRangeError):
            load_idx(img_path, n_classes=2)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_every_bit_flip_loads_or_raises(self, tmp_path, rng, which):
        # every header flip (magic, count, rows, cols) is caught: a smaller
        # extent leaves trailing bytes, a larger one truncates the data,
        # and rows or cols can flip to 0
        img_path, lbl_path = write_idx_pair(tmp_path, rng.integers(0, 256, (5, 4, 4), dtype=np.uint8), [0, 1, 2, 1, 0])
        path = img_path if which == "images" else lbl_path
        header = 16 if which == "images" else 8

        def load(blob):
            path.write_bytes(blob)
            return load_idx(img_path, n_classes=3)

        outcomes = flip_every_bit(path.read_bytes(), load, DataFormatError)
        assert all(isinstance(o, DataFormatError) for o in outcomes[: 8 * header])
        if which == "images":
            assert all(isinstance(o, Dataset) for o in outcomes[8 * header :])
            # bit 2 of the rows (byte 11) and cols (byte 15) extents 4
            for bit, field in ((8 * 11 + 2, "rows"), (8 * 15 + 2, "cols")):
                assert f"{field} is 0" in str(outcomes[bit])
        else:
            assert all(isinstance(o, (Dataset, LabelRangeError)) for o in outcomes[8 * header :])

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_every_cut_point_raises(self, tmp_path, rng, which):
        # the header fixes the record count, so every proper prefix of
        # either file, header or data, is a truncation
        img_path, lbl_path = write_idx_pair(tmp_path, rng.integers(0, 256, (3, 4, 5), dtype=np.uint8), [0, 1, 2])
        path = img_path if which == "images" else lbl_path
        header = 16 if which == "images" else 8
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            part = "header" if cut < header else "data"
            with pytest.raises(TruncatedFileError, match=f"idx {which[:-1]} {part}: expected"):
                load_idx(img_path, n_classes=3)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_trailing_byte(self, tmp_path, which):
        img_path, lbl_path = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        path = img_path if which == "images" else lbl_path
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError, match=f"idx {which[:-1]} data: 1 trailing bytes"):
            load_idx(img_path, n_classes=2)


class TestCifarBinary:
    def make_batch(self, tmp_path, n=4, bad_label=None):
        rng = np.random.default_rng(0)
        rec = np.zeros((n, 3073), dtype=np.uint8)
        rec[:, 0] = rng.integers(0, 10, n)
        if bad_label is not None:
            rec[0, 0] = bad_label
        rec[:, 1:] = rng.integers(0, 256, (n, 3072))
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(rec.tobytes())
        return path, rec

    def test_round_trip(self, tmp_path):
        path, rec = self.make_batch(tmp_path)
        ds = load_cifar_binary(path)
        assert ds.images.shape == (4, 3, 32, 32)
        np.testing.assert_array_equal(ds.labels, rec[:, 0])
        np.testing.assert_allclose(ds.images.reshape(4, -1), rec[:, 1:] / 255.0)

    def test_truncated(self, tmp_path):
        path, _ = self.make_batch(tmp_path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(TruncatedFileError):
            load_cifar_binary(path)

    def test_label_range(self, tmp_path):
        path, _ = self.make_batch(tmp_path, bad_label=17)
        with pytest.raises(LabelRangeError):
            load_cifar_binary(path)

    def test_every_bit_flip_loads_or_raises(self, tmp_path):
        # the label byte and the first 63 pixel bytes of a one-record batch
        path, rec = self.make_batch(tmp_path, n=1)
        head, rest = rec.tobytes()[:64], rec.tobytes()[64:]

        def load(blob):
            path.write_bytes(blob + rest)
            return load_cifar_binary(path)

        outcomes = flip_every_bit(head, load, DataFormatError)
        labels = [o.labels[0] if isinstance(o, Dataset) else None for o in outcomes[:8]]
        assert labels == [rec[0, 0] ^ (1 << b) if rec[0, 0] ^ (1 << b) < 10 else None for b in range(8)]
        assert all(isinstance(o, Dataset) for o in outcomes[8:])


    def test_every_cut_point_loads_a_prefix_or_raises(self, tmp_path):
        # a cut on a record boundary is a shorter batch of whole records
        path, rec = self.make_batch(tmp_path, n=2)
        blob = path.read_bytes()
        loaded = []
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            try:
                ds = load_cifar_binary(path)
            except TruncatedFileError:
                continue
            loaded.append(cut)
            np.testing.assert_array_equal(ds.labels, rec[: len(ds), 0])
            np.testing.assert_allclose(ds.images.reshape(len(ds), -1), rec[: len(ds), 1:] / 255.0)
        assert loaded == [3073]

    def test_every_label_bit_flip_loads_or_raises(self, tmp_path):
        # the label byte heading each record of a three-record batch: a
        # flip loads that record's changed label, or one past the classes
        # raises
        path, rec = self.make_batch(tmp_path, n=3)
        blob = rec.tobytes()
        labels = rec[:, 0].astype(np.int64)
        for r in range(3):
            at = 3073 * r

            def load(label):
                path.write_bytes(blob[:at] + label + blob[at + 1 :])
                return load_cifar_binary(path)

            outcomes = flip_every_bit(blob[at : at + 1], load, DataFormatError)
            for bit, o in enumerate(outcomes):
                want = labels.copy()
                want[r] ^= 1 << bit
                if want[r] < 10:
                    np.testing.assert_array_equal(o.labels, want)
                else:
                    assert isinstance(o, LabelRangeError)


class TestSynthetic:
    def test_spec_parsing(self):
        opts = parse_synthetic_spec("half-informative, n=100, size=8, classes=2, ratios=0.25:0.75, seed=3")
        assert opts["n"] == 100 and opts["size"] == 8 and opts["ratios"] == (0.25, 0.75)

    def test_spec_rejects_unknown(self):
        with pytest.raises(DataFormatError, match="unknown synthetic"):
            parse_synthetic_spec("gaussian-blobs,n=10")
        with pytest.raises(DataFormatError, match="unknown synthetic spec key"):
            parse_synthetic_spec("half-informative,frobnicate=3")

    @pytest.mark.parametrize(
        "entry, key",
        [("n=abc", "'n'"), ("n=1.5", "'n'"), ("amp=high", "'amp'"), ("ratios=0.25:x", "'ratios'"),
         ("ratios=", "'ratios'"), ("task=one", "'task'")],
    )
    def test_spec_rejects_bad_value(self, entry, key):
        with pytest.raises(DataFormatError, match=f"synthetic spec key {key}: cannot read"):
            parse_synthetic_spec(f"half-informative,{entry}")

    @pytest.mark.parametrize(
        "entry, key",
        [("ratios=1.5", "'ratios'"), ("ratios=-0.5", "'ratios'"), ("ratios=0.25:0.999", "'ratios'"),
         ("n=-1", "'n'"), ("size=0", "'size'"), ("classes=0", "'classes'"), ("channels=0", "'channels'"),
         ("amp=-0.01", "'amp'"), ("amp=nan", "'amp'"), ("noise=-0.01", "'noise'"), ("noise=0.51", "'noise'"),
         ("spurious=-0.01", "'spurious'"), ("spurious=1.01", "'spurious'"), ("seed=-1", "'seed'"),
         ("task=-1", "'task'")],
    )
    def test_spec_rejects_out_of_range(self, entry, key):
        # 0.999 rounds to all 64 pixels of an 8x8 image: an empty patch
        with pytest.raises(DataFormatError, match=f"synthetic spec key {key}: must be"):
            load_dataset(f"half-informative,n=4,size=8,{entry}", "synthetic-spec")

    @pytest.mark.parametrize("key, value", [("ratios", (1.5,)), ("ratios", ()), ("n", -1), ("noise", 0.7), ("seed", -1)])
    def test_generator_rejects_out_of_range(self, key, value):
        with pytest.raises(DataFormatError, match=f"synthetic spec key '{key}': must be"):
            generate_half_informative(**{"n": 4, "size": 8, key: value})

    @pytest.mark.parametrize("key, value", [("amp", 0.0), ("amp", 1e6), ("noise", 0.0), ("noise", 0.5),
                                            ("spurious", 0.0), ("spurious", 1.0)])
    def test_range_edges_keep_pixels_in_unit_interval(self, key, value):
        # amp 1e6 is capped at 0.5 - noise; Dataset rejects pixels outside [0, 1]
        ds = generate_half_informative(n=40, size=8, ratios=(0.0, 0.75), **{key: value})
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_spec_gives_generator_arguments(self):
        opts = parse_synthetic_spec("half-informative,n=12,size=8,task=3,spurious=0.2")
        assert opts["task_seed"] == 3 and "task" not in opts and opts["spurious"] == 0.2
        via_spec = load_dataset("half-informative,n=12,size=8,task=3,spurious=0.2", "synthetic-spec")
        direct = generate_half_informative(n=12, size=8, task_seed=3, spurious=0.2)
        np.testing.assert_array_equal(via_spec.images, direct.images)
        np.testing.assert_array_equal(via_spec.labels, direct.labels)

    def test_generator_contract(self):
        ds = generate_half_informative(n=30, size=8, classes=2, ratios=(0.25, 0.75), seed=5)
        assert len(ds) == 30
        assert ds.images.shape == (30, 1, 8, 8)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) <= {0, 1}
        ratios = ds.meta["irrelevant_ratio"]
        assert set(np.unique(ratios)) <= {0.25, 0.75}
        masks = ds.meta["relevant_mask"]
        for i in range(30):
            # patch area tracks the requested ratio up to rectangle rounding
            expected_relevant = 64 - round(ratios[i] * 64)
            assert abs(int(masks[i].sum()) - expected_relevant) <= 4
            rows = np.flatnonzero(masks[i].any(axis=1))
            cols = np.flatnonzero(masks[i].any(axis=0))
            assert masks[i][rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].all()

    def test_signal_is_in_patch(self):
        ds = generate_half_informative(n=40, size=16, classes=2, seed=7)
        # two samples with identical labels share texture inside patches
        masks = ds.meta["relevant_mask"]
        for i in range(40):
            inside = ds.images[i, 0][masks[i]]
            outside = ds.images[i, 0][~masks[i]]
            # background is uniform noise, patch is bimodal around 0.5 +- amp
            assert inside.std() < outside.std() + 0.5

    def test_generator_deterministic(self):
        a = generate_half_informative(n=10, size=8, seed=9)
        b = generate_half_informative(n=10, size=8, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_load_dataset_dispatch(self):
        ds = load_dataset("half-informative,n=12,size=8,classes=2", "synthetic-spec", split="train")
        assert len(ds) == 12
        assert ds.provenance.startswith("half-informative")
        with pytest.raises(DataFormatError, match="unknown dataset format"):
            load_dataset("x", "parquet")


class TestDatasetType:
    def test_validation(self):
        with pytest.raises(DataFormatError, match="labels"):
            Dataset(np.zeros((2, 1, 2, 2)), np.zeros(3, dtype=int), 2, "train", "x")
        with pytest.raises(LabelRangeError):
            Dataset(np.zeros((2, 1, 2, 2)), np.array([0, 5]), 2, "train", "x")
        with pytest.raises(DataFormatError, match=r"\[0, 1\]"):
            Dataset(np.full((1, 1, 2, 2), 1.5), np.array([0]), 2, "train", "x")
        with pytest.raises(DataFormatError, match=r"\[0, 1\]"):
            Dataset(np.full((2, 1, 4, 4), np.nan), np.array([0, 1]), 2, "train", "x")

    def test_take(self):
        ds = generate_half_informative(n=10, size=8, seed=0)
        sub = ds.take(4)
        assert len(sub) == 4
        assert len(sub.meta["irrelevant_ratio"]) == 4
        assert ds.take(None) is ds
