import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given

from dflow.color import ColorImage
from dflow.data import (
    GREEN_MARGIN,
    DatasetManifest,
    FrameSequence,
    ManifestError,
    SourceRecord,
    SynthSceneParams,
    load_manifest,
    load_split_windows,
    rasterize_polygon,
    read_frame,
    read_pgm,
    save_manifest,
    synth_generate,
    window_sequences,
    write_pgm,
    write_pgm16,
    write_ppm,
)
from dflow.network import DFlowConfig, build_dflow
from dflow.training import TrainConfig, evaluate, train

from fuzz import damaged, fuzz_settings

PPM_BLOB = b"P6\n# fuzzed\n3 2\n255\n" + bytes(range(0, 180, 10))
PGM16_BLOB = b"P5\n2 3\n65535\n" + np.arange(0, 60000, 10000, dtype=">u2").tobytes()
MANIFEST_FILES = ["f0.ppm", "f1.ppm", "l0.pgm", "l1.pgm"]
MANIFEST_BLOB = (json.dumps({"version": 1, "sources": [
    {"id": "s0", "frames": ["f0.ppm", "f1.ppm"], "labels": ["l0.pgm", "l1.pgm"],
     "split": "train", "metadata": {"seed": 3}},
    {"id": "s1", "frames": ["f1.ppm"], "labels": ["l1.pgm"], "split": "val"},
]}, indent=2, sort_keys=True) + "\n").encode()


def read_ppm(path):
    """A PPM file's float pixels, read by the one frame reader (the reader
    tables below name their cases read_ppm and read_pgm)."""
    return read_frame(path).pixels


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        px = np.round(rng.uniform(size=(3, 5, 7)) * 255) / 255
        path = tmp_path / "img.ppm"
        write_ppm(path, px)
        npt.assert_allclose(read_ppm(path), px, atol=1e-12)

    def test_pgm_round_trip(self, tmp_path):
        mask = (np.random.default_rng(1).uniform(size=(1, 4, 6)) > 0.5).astype(float)
        path = tmp_path / "mask.pgm"
        write_pgm(path, mask)
        npt.assert_array_equal(read_pgm(path), mask)

    def test_pgm16_quantisation_error_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        probs = rng.uniform(size=(1, 8, 8))
        path = tmp_path / "prob.pgm"
        write_pgm16(path, probs)
        back = read_pgm(path)
        assert np.abs(back - probs).max() <= 0.5 / 65535

    def test_pgm16_is_big_endian(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm16(path, np.array([[1.0 / 65535.0]]))
        blob = path.read_bytes()
        assert blob.endswith(b"\x00\x01")

    def test_ppm_bytes(self, tmp_path):
        # (3, H=1, W=2): samples interleave per pixel, values clip to [0, 1]
        # and round half to even (0.5 * 255 = 127.5 -> 128)
        px = np.array([[[0.0, 0.5]], [[1.0, 1.5]], [[-0.2, 0.1]]])
        path = tmp_path / "img.ppm"
        write_ppm(path, px)
        assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([0, 255, 0, 128, 255, 26])

    @pytest.mark.parametrize("lead", [(), (1,)])
    def test_pgm_bytes(self, tmp_path, lead):
        # (H=2, W=3) or (1, 2, 3): 255 strictly above 0.5, so 0.5 itself is 0
        mask = np.array([[0.0, 0.5, 0.5000001], [1.0, 0.25, 2.0]]).reshape(lead + (2, 3))
        path = tmp_path / "mask.pgm"
        write_pgm(path, mask)
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 0, 255, 255, 0, 255])

    @pytest.mark.parametrize("lead", [(), (1,)])
    def test_pgm16_bytes(self, tmp_path, lead):
        # two big-endian bytes per sample; 0.5 * 65535 = 32767.5 rounds to 32768
        values = np.array([[0.0, 0.5, 1.0], [1.0 / 65535.0, 2.0, -1.0]]).reshape(lead + (2, 3))
        path = tmp_path / "prob.pgm"
        write_pgm16(path, values)
        assert path.read_bytes() == (b"P5\n3 2\n65535\n"
                                     + b"\x00\x00\x80\x00\xff\xff\x00\x01\xff\xff\x00\x00")

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 2, 2), (3, 2), (1, 3, 2, 2)])
    def test_ppm_writer_rejects_other_shapes(self, tmp_path, shape):
        with pytest.raises(ValueError, match=r"expected \(3, H, W\)"):
            write_ppm(tmp_path / "bad.ppm", np.zeros(shape))
        assert not (tmp_path / "bad.ppm").exists()

    @pytest.mark.parametrize("writer", [write_pgm, write_pgm16])
    @pytest.mark.parametrize("shape", [(2, 2, 2), (4,), (1, 1, 2, 2)])
    def test_pgm_writers_reject_other_shapes(self, tmp_path, writer, shape):
        with pytest.raises(ValueError, match=r"expected \(H, W\) or \(1, H, W\)"):
            writer(tmp_path / "bad.pgm", np.zeros(shape))
        assert not (tmp_path / "bad.pgm").exists()

    def test_header_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_ppm16_reads_big_endian_samples(self, tmp_path):
        path = tmp_path / "deep.ppm"
        samples = np.array([65535, 0, 32768], dtype=">u2")
        path.write_bytes(b"P6\n1 1\n65535\n" + samples.tobytes())
        npt.assert_array_equal(read_ppm(path), (samples / 65535.0).reshape(3, 1, 1))

    @pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    @pytest.mark.parametrize("maxval", [0, 70000])
    def test_maxval_outside_range_is_rejected(self, tmp_path, reader, magic, maxval):
        path = tmp_path / "bad.pnm"
        path.write_bytes(magic + f"\n1 1\n{maxval}\n".encode() + b"\x00" * 6)
        with pytest.raises(ValueError, match=f"bad.pnm.*maxval {maxval}"):
            reader(path)

    @pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    @pytest.mark.parametrize("width, height", [(0, 0), (0, 3), (3, 0)])
    def test_frame_without_pixels_names_the_file_and_size(self, tmp_path, reader, magic,
                                                          width, height):
        path = tmp_path / "empty.pnm"
        path.write_bytes(magic + f"\n{width} {height}\n255\n".encode())
        with pytest.raises(ValueError, match=f"empty.pnm: size {width}x{height} has no pixels"):
            reader(path)

    @pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_short_payload_names_the_file(self, tmp_path, reader, magic, maxval):
        path = tmp_path / "short.pnm"
        path.write_bytes(magic + f"\n2 2\n{maxval}\n".encode() + b"\x00" * 3)
        with pytest.raises(ValueError, match="short.pnm"):
            reader(path)

    @pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    @pytest.mark.parametrize("rest, named", [
        (b"\n1 1\n255XABC", "no whitespace after maxval"),
        (b"\n1 1\n255", "no whitespace after maxval"),
        (b"2 2\n255\n" + b"\x00" * 12, "header lacks a whitespace-separated width"),
        (b"\n1 1\n", "header lacks a whitespace-separated maxval"),
        (b"\n1x1\n255\n\x00\x00\x00", "header lacks a whitespace-separated height"),
    ], ids=["byte_after_maxval", "ends_at_maxval", "glued_magic", "no_maxval", "glued_height"])
    def test_malformed_header_names_the_file(self, tmp_path, reader, magic, rest, named):
        path = tmp_path / "bad.pnm"
        path.write_bytes(magic + rest)
        with pytest.raises(ValueError, match=f"bad.pnm: {named}"):
            reader(path)

    @pytest.mark.parametrize("separator", [b" ", b"\t", b"\r", b"\n"])
    def test_one_whitespace_byte_of_any_kind_ends_the_header(self, tmp_path, separator):
        path = tmp_path / "ok.ppm"
        path.write_bytes(b"P6#c\n1\t1 # c\n255" + separator + b"\x00\x80\xff")
        npt.assert_array_equal(read_ppm(path)[:, 0, 0], [0.0, 128 / 255, 1.0])

    @pytest.mark.parametrize("reader, magic, samples, maxval, named", [
        (read_ppm, b"P6", bytes([200, 50, 0]), 100, 200),
        (read_pgm, b"P5", bytes([250]), 100, 250),
        (read_ppm, b"P6", np.array([1001, 0, 1000], ">u2").tobytes(), 1000, 1001),
        (read_pgm, b"P5", np.array([65535], ">u2").tobytes(), 1000, 65535),
    ], ids=["ppm8", "pgm8", "ppm16", "pgm16"])
    def test_sample_above_maxval_names_the_file(self, tmp_path, reader, magic, samples,
                                                maxval, named):
        path = tmp_path / "bright.pnm"
        path.write_bytes(magic + f"\n1 1\n{maxval}\n".encode() + samples)
        with pytest.raises(ValueError,
                           match=f"bright.pnm: sample {named} exceeds maxval {maxval}"):
            reader(path)

    @fuzz_settings
    @given(damaged(PPM_BLOB), damaged(PGM16_BLOB))
    @example(PPM_BLOB.replace(b"255", b"155"), PGM16_BLOB)
    def test_truncated_or_flipped_file_reads_or_is_a_value_error(self, tmp_path, ppm, pgm):
        for reader, blob in ((read_ppm, ppm), (read_pgm, pgm)):
            path = tmp_path / "fuzzed.pnm"
            path.write_bytes(blob)
            try:
                values = reader(path)
            except ValueError:
                continue
            assert ((values >= 0.0) & (values <= 1.0)).all()


class TestManifest:
    def test_empty_manifest_is_valid(self, tmp_path):
        save_manifest(DatasetManifest(root=tmp_path, sources=[]))
        manifest = load_manifest(tmp_path)
        assert manifest.sources == []

    def test_missing_label_file_is_named(self, tmp_path):
        (tmp_path / "s0").mkdir()
        write_ppm(tmp_path / "s0/frame_00000.ppm", np.zeros((3, 2, 2)))
        rec = SourceRecord(id="s0", frames=["s0/frame_00000.ppm"],
                           labels=["s0/label_00000.pgm"], split="train")
        save_manifest(DatasetManifest(root=tmp_path, sources=[rec]))
        with pytest.raises(ManifestError, match="label_00000.pgm"):
            load_manifest(tmp_path)

    def test_frame_and_label_counts_must_match(self, tmp_path):
        (tmp_path / "f0.ppm").touch()
        rec = SourceRecord(id="s0", frames=["f0.ppm"], labels=[], split="train")
        save_manifest(DatasetManifest(root=tmp_path, sources=[rec]))
        with pytest.raises(ManifestError, match="source s0: 1 frames vs 0 labels"):
            load_manifest(tmp_path)

    def test_round_trip_preserves_records(self, tmp_path):
        params = SynthSceneParams(width=8, height=8, seed=3)
        manifest = synth_generate(params, 2, 3, tmp_path, splits=["train", "val"])
        reloaded = load_manifest(tmp_path)
        assert [s.__dict__ for s in reloaded.sources] == \
               [s.__dict__ for s in manifest.sources]

    def test_duplicate_ids_and_bad_split_rejected(self, tmp_path):
        rec = SourceRecord(id="s0", frames=[], labels=[], split="train")
        dup = SourceRecord(id="s0", frames=[], labels=[], split="nope")
        save_manifest(DatasetManifest(root=tmp_path, sources=[rec, dup]))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(tmp_path)

    @fuzz_settings
    @given(damaged(MANIFEST_BLOB))
    def test_truncated_or_flipped_manifest_loads_or_is_a_manifest_error(self, tmp_path,
                                                                         blob):
        for name in MANIFEST_FILES:
            (tmp_path / name).touch()
        (tmp_path / "manifest.json").write_bytes(blob)
        try:
            load_manifest(tmp_path)
        except ManifestError:
            pass

    def test_unparseable_manifest(self, tmp_path):
        for blob in (b"{not json", b"\xff"):
            (tmp_path / "manifest.json").write_bytes(blob)
            with pytest.raises(ManifestError, match="parse"):
                load_manifest(tmp_path)

    @pytest.mark.parametrize("key", ["id", "frames", "labels", "split"])
    def test_source_without_a_key_is_named(self, tmp_path, key):
        entry = {"id": "s0", "frames": [], "labels": [], "split": "train"}
        del entry[key]
        (tmp_path / "manifest.json").write_text(
            json.dumps({"version": 1, "sources": [entry, entry]}))
        with pytest.raises(ManifestError, match=f"source 0 lacks key '{key}'"):
            load_manifest(tmp_path)

    def test_source_that_is_not_an_object_is_named(self, tmp_path):
        entry = {"id": "s0", "frames": [], "labels": [], "split": "train"}
        (tmp_path / "manifest.json").write_text(
            json.dumps({"version": 1, "sources": [entry, ["s1"]]}))
        with pytest.raises(ManifestError, match="source 1 is not a JSON object"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("key", ["frames", "labels"])
    def test_frames_or_labels_not_a_list_is_named(self, tmp_path, key):
        entry = {"id": "s0", "frames": [], "labels": [], "split": "train", key: 3}
        (tmp_path / "manifest.json").write_text(
            json.dumps({"version": 1, "sources": [entry]}))
        with pytest.raises(ManifestError, match=f"source 0: '{key}' is not a list"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("key, value, named", [
        ("id", ["x"], "'id' is not a string"),
        ("id", 7, "'id' is not a string"),
        ("split", None, "'split' is not a string"),
        ("frames", [3], "'frames' entry 0 is not a string"),
        ("labels", ["l0.pgm", {"path": "l1.pgm"}], "'labels' entry 1 is not a string"),
        ("metadata", [1], "'metadata' is not an object"),
        ("id", "../../escaped", "id '../../escaped' holds '/' or NUL"),
        ("id", "te\0st", r"id 'te\\x00st' holds '/' or NUL"),
    ], ids=["id_list", "id_int", "split_null", "frame_int", "label_object", "metadata_list",
            "id_with_slash", "id_with_nul"])
    def test_element_of_the_wrong_type_is_named(self, tmp_path, key, value, named):
        good = {"id": "s0", "frames": [], "labels": [], "split": "train"}
        bad = dict(good, id="s1")
        bad[key] = value
        (tmp_path / "manifest.json").write_text(
            json.dumps({"version": 1, "sources": [good, bad]}))
        with pytest.raises(ManifestError, match=f"source 1: {named}"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("doc, named", [
        ([], "not a JSON object"),
        ({"version": 1, "sources": {"id": "s0"}}, "'sources' is not a list"),
        ({"version": 2, "sources": []}, "unsupported manifest version 2"),
        ({"version": True, "sources": []}, "unsupported manifest version true"),
        ({"version": 1.0, "sources": []}, r"unsupported manifest version 1\.0"),
        ({"sources": []}, "unsupported manifest version null"),
        ({"version": 1}, "lacks key 'sources'"),
    ], ids=["list", "sources_object", "version_2", "version_true", "version_float",
            "version_missing", "sources_missing"])
    def test_top_level_that_is_not_an_object_is_rejected(self, tmp_path, doc, named):
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=named):
            load_manifest(tmp_path)

    def test_empty_sources_list_is_an_empty_dataset(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"version": 1, "sources": []}))
        assert load_manifest(tmp_path).sources == []


class TestWindowing:
    @pytest.fixture()
    def dataset(self, tmp_path):
        params = SynthSceneParams(width=8, height=8, seed=6)
        synth_generate(params, 2, 6, tmp_path, splits=["train", "train"])
        return load_manifest(tmp_path)

    def test_window_count_single_source(self, tmp_path):
        params = SynthSceneParams(width=8, height=8, seed=7)
        manifest = synth_generate(params, 1, 10, tmp_path, ["train"])
        assert len(list(window_sequences(manifest, k=4, split="train"))) == 6

    def test_exactly_k_plus_one_frames_gives_one_window(self, tmp_path):
        params = SynthSceneParams(width=8, height=8, seed=8)
        manifest = synth_generate(params, 1, 5, tmp_path, ["train"])
        windows = list(window_sequences(manifest, k=4, split="train"))
        assert len(windows) == 1
        assert len(windows[0]) == 5

    def test_windows_never_mix_sources(self, dataset):
        windows = list(window_sequences(dataset, k=4, split="train"))
        assert len(windows) == 4  # two sources x (6 - 5 + 1) each
        assert {w.source_id for w in windows} == {"seq_000", "seq_001"}

    def test_negative_k_is_rejected(self, dataset):
        with pytest.raises(ValueError, match="k must be >= 0"):
            next(window_sequences(dataset, k=-1, split="train"))

    def test_short_sources_are_skipped_with_warning(self, dataset):
        with pytest.warns(UserWarning, match="fewer than"):
            assert list(window_sequences(dataset, k=9, split="train")) == []

    def test_label_is_final_frame_mask(self, dataset):
        w = next(window_sequences(dataset, k=2, split="train"))
        label = read_pgm(dataset.root / dataset.sources[0].labels[2])
        npt.assert_array_equal(w.label, label)

    @pytest.mark.parametrize("files, write, values, size", [
        ("frames", write_ppm, np.zeros((3, 8, 6)), "6x8"),
        ("labels", write_pgm, np.zeros((7, 8)), "8x7"),
    ], ids=["frame", "label"])
    def test_file_of_another_size_is_named(self, dataset, files, write, values, size):
        path = dataset.root / getattr(dataset.sources[1], files)[3]
        write(path, values)
        with pytest.raises(ValueError) as info:
            list(window_sequences(dataset, k=2, split="train"))
        assert str(info.value) == f"{path}: {size} differs from the 8x8 of seq_001's first frame"

    def test_non_binary_label_is_named(self, dataset):
        path = dataset.root / dataset.sources[0].labels[0]
        # 16-bit labels at half scale, and of samples 0 and 255 (binary at maxval 255)
        for values in (np.full((8, 8), 0.5), np.arange(64).reshape(8, 8) % 2 * 255 / 65535):
            write_pgm16(path, values)
            with pytest.raises(ValueError) as info:
                list(window_sequences(dataset, k=2, split="train"))
            assert str(info.value) == f"{path}: label samples must be 0 or maxval"

    def test_split_loader_groups_by_split(self, tmp_path):
        params = SynthSceneParams(width=8, height=8, seed=9)
        synth_generate(params, 3, 5, tmp_path, splits=["train", "val", "test"])
        groups = load_split_windows(load_manifest(tmp_path), k=4)
        assert {k: len(v) for k, v in groups.items()} == \
               {"train": 1, "val": 1, "test": 1}


class TestFrameSequence:
    def test_rejects_mixed_dimensions(self):
        a = ColorImage(np.zeros((3, 4, 4)))
        b = ColorImage(np.zeros((3, 5, 5)))
        with pytest.raises(ValueError):
            FrameSequence(frames=[a, b], label=np.zeros((1, 4, 4)))

    def test_rejects_no_frames(self):
        with pytest.raises(ValueError, match="at least one frame"):
            FrameSequence(frames=[], label=np.zeros((1, 4, 4)))

    def test_rejects_a_label_of_another_size(self):
        a = ColorImage(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match=r"label shape \(1, 4, 5\) does not match"):
            FrameSequence(frames=[a], label=np.zeros((1, 4, 5)))

    def test_rejects_unordered_indices(self):
        a = ColorImage(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            FrameSequence(frames=[a, a], label=np.zeros((1, 4, 4)), frame_indices=(3, 2))


class TestSynthGenerate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        params = SynthSceneParams(width=16, height=16, seed=10)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        synth_generate(params, 2, 4, a_dir, ["train"] * 2)
        synth_generate(params, 2, 4, b_dir, ["train"] * 2)
        for rel in sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()):
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel

    @pytest.mark.parametrize("size, seed, distractors, want", [
        (8, 3, 0, "5fe0329d01ffcbc1bf4cee7ad5c60e36eaf7bd8e161e1e32a3fd6dc03ba17988"),
        (24, 7, 3, "1753242824b2ac396a562ddb3e8d681f24565bf4e33402ef9c03ba2db23bde92"),
    ])
    def test_bytes_are_pinned(self, tmp_path, size, seed, distractors, want):
        # a SHA-256 over every file's path and SHA-256: unlike two runs of one
        # commit, this catches a change that alters any byte from one commit
        # to the next
        params = SynthSceneParams(width=size, height=size, seed=seed,
                                  distractor_count=distractors)
        synth_generate(params, 2, 3, tmp_path, ["train", "val"])
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(tmp_path)).encode() + b"\0"
                          + hashlib.sha256(path.read_bytes()).digest())
        assert digest.hexdigest() == want

    def test_manifest_counts(self, tmp_path):
        params = SynthSceneParams(width=8, height=8, seed=11)
        manifest = synth_generate(params, 3, 8, tmp_path, ["train"] * 3)
        assert len(manifest.sources) == 3
        assert all(len(s.frames) == 8 and len(s.labels) == 8
                   for s in manifest.sources)

    def test_clean_scene_label_equals_green_dominance(self, tmp_path):
        params = SynthSceneParams(width=24, height=24, seed=12,
                                  brightness_drift=0.0, distractor_count=0,
                                  noise_level=0.0)
        manifest = synth_generate(params, 1, 4, tmp_path, ["train"])
        src = manifest.sources[0]
        for frame_rel, label_rel in zip(src.frames, src.labels):
            px = read_ppm(manifest.root / frame_rel)
            label = read_pgm(manifest.root / label_rel)[0]
            margin = GREEN_MARGIN
            dominant = (px[1] > px[0] + margin) & (px[1] > px[2] + margin)
            npt.assert_array_equal(dominant.astype(float), label)

    def test_stored_polygons_rerasterize_to_stored_masks(self, tmp_path):
        params = SynthSceneParams(width=16, height=16, seed=13)
        manifest = synth_generate(params, 2, 3, tmp_path, ["train"] * 2)
        # go through the JSON round trip deliberately
        doc = json.loads((manifest.root / "manifest.json").read_text())
        for src in doc["sources"]:
            for poly, label_rel in zip(src["metadata"]["polygons"], src["labels"]):
                mask = rasterize_polygon(np.array(poly), 16, 16)
                npt.assert_array_equal(mask, read_pgm(manifest.root / label_rel))

    def test_distractors_stay_outside_target(self, tmp_path):
        params = SynthSceneParams(width=24, height=24, seed=14,
                                  brightness_drift=0.0, distractor_count=3,
                                  flicker_rate=1.0, noise_level=0.0)
        manifest = synth_generate(params, 1, 4, tmp_path, ["train"])
        src = manifest.sources[0]
        for frame_rel, label_rel in zip(src.frames, src.labels):
            px = read_ppm(manifest.root / frame_rel)
            label = read_pgm(manifest.root / label_rel)[0]
            margin = GREEN_MARGIN
            dominant = (px[1] > px[0] + margin) & (px[1] > px[2] + margin)
            # green-dominant pixels exist outside the label (the distractors),
            # and inside the label everything is green-dominant
            assert dominant[label == 1.0].all()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SynthSceneParams(width=0)
        with pytest.raises(ValueError):
            SynthSceneParams(noise_level=2.0)
        with pytest.raises(ValueError, match="width must be an integer, got 2.5"):
            SynthSceneParams(width=2.5)
        with pytest.raises(ValueError):
            synth_generate(SynthSceneParams(), 2, 3, "/tmp/x", splits=["train"])
        with pytest.raises(ValueError, match="at least one sequence"):
            synth_generate(SynthSceneParams(), 0, 3, tmp_path, splits=[])

    def test_unknown_split_tag_is_rejected_before_anything_is_written(self, tmp_path):
        root = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown split 'dev'"):
            synth_generate(SynthSceneParams(width=8, height=8), 2, 3, root, ["train", "dev"])
        assert not root.exists()

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 40), (40, 1)])
    def test_distractors_need_two_pixels_on_each_side(self, width, height):
        # a distractor patch is at least 2 pixels wide
        with pytest.raises(ValueError, match=f"distractor_count must be 0 when width or "
                           f"height is below 2, got distractor_count=1, width={width}, "
                           f"height={height}"):
            SynthSceneParams(width=width, height=height, distractor_count=1)
        SynthSceneParams(width=width, height=height, distractor_count=0)

    @pytest.mark.parametrize("width, height", [(2, 2), (2, 40), (40, 2)])
    def test_distractors_fit_two_pixels_on_each_side(self, tmp_path, width, height):
        params = SynthSceneParams(width=width, height=height, distractor_count=1,
                                  flicker_rate=1.0)
        src = synth_generate(params, 1, 2, tmp_path, ["train"]).sources[0]
        for frame_rel, label_rel in zip(src.frames, src.labels):
            px = read_ppm(tmp_path / frame_rel)
            label = read_pgm(tmp_path / label_rel)[0]
            dominant = (px[1] > px[0] + GREEN_MARGIN) & (px[1] > px[2] + GREEN_MARGIN)
            assert (dominant & (label == 0.0)).sum() == 4  # one visible 2x2 patch

    @pytest.mark.parametrize("name", ["brightness_drift", "flicker_rate", "noise_level"])
    def test_rates_may_be_one_but_not_above(self, name):
        SynthSceneParams(**{name: 1.0})
        with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\], got 1.25"):
            SynthSceneParams(**{name: 1.25})

    def test_a_two_frame_sequence_moves_half_a_period_per_frame(self, tmp_path):
        # the centre moves with sin(2 pi t / length + phase): frame 1 of 2 and
        # frame 2 of 4 are both half a period on, so their polygons are equal
        params = SynthSceneParams(width=16, height=16, seed=5)
        two = synth_generate(params, 1, 2, tmp_path / "two", ["train"])
        four = synth_generate(params, 1, 4, tmp_path / "four", ["train"])
        polygons = [m.sources[0].metadata["polygons"] for m in (two, four)]
        assert polygons[0][1] == polygons[1][2]
        assert polygons[0][0] == polygons[1][0] != polygons[0][1]


class TestLoadedFrames:
    """Frames loaded by ``load_split_windows`` against float frames of the same files."""

    @pytest.fixture()
    def dataset(self, tmp_path):
        params = SynthSceneParams(width=8, height=8, seed=15)
        synth_generate(params, 3, 5, tmp_path, splits=["train", "val", "test"])
        return load_manifest(tmp_path)

    @staticmethod
    def rebuilt_from_floats(manifest, windows):
        """The same windows, each frame read again as float pixels and each label
        with read_pgm."""
        sources = {src.id: src for src in manifest.sources}

        def rebuild(seq):
            src = sources[seq.source_id]
            frames = [ColorImage(read_frame(manifest.root / src.frames[i]).pixels)
                      for i in seq.frame_indices]
            label = read_pgm(manifest.root / src.labels[seq.frame_indices[-1]])
            return FrameSequence(frames, label, seq.source_id, seq.frame_indices)

        return {split: [rebuild(seq) for seq in seqs] for split, seqs in windows.items()}

    def test_predict_training_and_evaluate_match_read_ppm_floats(self, dataset):
        loaded = load_split_windows(dataset, k=2)
        floats = self.rebuilt_from_floats(dataset, loaded)
        assert [len(loaded[s]) for s in ("train", "val", "test")] == [3, 3, 3]
        assert loaded["train"][0].frames[1] is loaded["train"][1].frames[0]  # one image a frame
        for space in ("yuv", "hsv"):
            model = build_dflow(DFlowConfig(flow_b_space=space, channels=2, k=2), seed=0)
            for a, b in zip(loaded["test"], floats["test"]):
                npt.assert_array_equal(model.predict(a.frames), model.predict(b.frames))
        config = TrainConfig(steps=3, eval_interval=1, seed=0)
        runs = [train(build_dflow(DFlowConfig(channels=2, k=2), seed=1), windows, config)
                for windows in (loaded, floats)]
        assert runs[0].curve == runs[1].curve
        params = [run.model.parameters() for run in runs]
        assert params[0].keys() == params[1].keys()
        for name in params[0]:
            npt.assert_array_equal(params[0][name].data, params[1][name].data)
        rows = [evaluate(run.model, windows, "test").rows
                for run, windows in zip(runs, (loaded, floats))]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("maxval", [255, 100, 65535, 1000, 256])
    def test_pixels_equal_read_ppm_in_values_dtype_and_strides(self, tmp_path, maxval):
        h, w = 3, 5
        samples = np.random.default_rng(maxval).integers(0, maxval + 1, size=h * w * 3)
        frame = tmp_path / "f.ppm"
        frame.write_bytes(f"P6\n{w} {h}\n{maxval}\n".encode()
                          + samples.astype(">u2" if maxval > 255 else np.uint8).tobytes())
        write_pgm(tmp_path / "l.pgm", np.zeros((h, w)))
        rec = SourceRecord(id="s0", frames=["f.ppm"], labels=["l.pgm"], split="train")
        save_manifest(DatasetManifest(root=tmp_path, sources=[rec]))
        (window,) = load_split_windows(load_manifest(tmp_path), k=0)["train"]
        got = window.frames[0].pixels
        want = samples.reshape(h, w, 3).transpose(2, 0, 1) / maxval
        npt.assert_array_equal(got, want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("maxval", [1, 255, 65535])
    def test_label_is_a_bool_mask_where_the_sample_is_maxval(self, tmp_path, maxval):
        h, w = 3, 5
        samples = np.random.default_rng(maxval).integers(0, 2, size=h * w) * maxval
        write_ppm(tmp_path / "f.ppm", np.zeros((3, h, w)))
        label = tmp_path / "l.pgm"
        label.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode()
                          + samples.astype(">u2" if maxval > 255 else np.uint8).tobytes())
        rec = SourceRecord(id="s0", frames=["f.ppm"], labels=["l.pgm"], split="train")
        save_manifest(DatasetManifest(root=tmp_path, sources=[rec]))
        (window,) = load_split_windows(load_manifest(tmp_path), k=0)["train"]
        assert (window.label.dtype, window.label.shape) == (np.bool_, (1, h, w))
        npt.assert_array_equal(window.label, read_pgm(label) == 1)
        assert 0 < window.label.sum() < h * w

    def test_frames_hold_about_one_byte_per_8_bit_sample(self, tmp_path, traced_memory):
        params = SynthSceneParams(width=32, height=32, seed=16)
        synth_generate(params, 4, 6, tmp_path, splits=["train", "train", "val", "test"])
        manifest = load_manifest(tmp_path)
        windows = {}
        retained, _ = traced_memory(lambda: windows.update(load_split_windows(manifest, k=2)))
        n_windows = sum(len(seqs) for seqs in windows.values())
        samples = 4 * 6 * 3 * 32 * 32          # every frame of every source, 1 byte each
        labels = n_windows * 32 * 32           # each window's bool label
        # float64 frames would retain 8 bytes per sample (about 740 KB here)
        assert retained <= 1.25 * samples + labels + 2048 * n_windows, retained
