"""The presets' bytes, pinned through the base-commit byte check in tools/same_bytes.py."""

import hashlib
import importlib.util
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

# Since simulate runs on the standard library, these bytes depend only on the
# program and on libm's sin and cos.
RECORDED_ON = "glibc 2.36, x86_64 with FMA"
PRESET_SHA256 = {
    "circle.csv": "4ce6f47f94714903a691a1ba91bd27a14b87299815bf762315cb158c36fa0a0b",
    "circle.gp": "1e20fb307a67503044fcabce9fa2ff80d16b39c8f69708b2fb81c001112fd293",
    "circle.stdout": "2494cdfa9174e0673c51caa5298fe70db7b1c45ed834caef35a3cdf3138dec4d",
    "precession.csv": "d5c4713db219e0e97fdf5c655b01e4fe6f57a65b732dec211268eebef4365c0a",
    "precession.gp": "7a086934c1059081446f629e199645f5f5d747fa9f14150317b21a79cee6d0ec",
    "precession.stdout": "9aaffea5b7a6cbe427eeae9d80121af137abfc6caed485ebecd79e63a58e868b",
    "spin.csv": "81e8203621dab7050ca745347fc6caceafccf2b9e09f143d79f604f52ae4e7d8",
    "spin.gp": "239e3bb88c6d8407d885a5cdce1226ecec662361861c7da54138c1e6621d50f7",
    "spin.stdout": "3d2790205604e4354fa65865ca01da6d85c610d312f3a0f396c04421c9f273d7",
    "straight.csv": "713a94e849b662604446de0cb529edc52cce4009d443fa6200966159c164f559",
    "straight.gp": "dfd73ea6de518e7be23d9077c78910dc4a5b0e86696aa98682e3d2e064b36212",
    "straight.stdout": "33e4cee381c7f9c0054363e82632d0aff77967783e7b4c3030bb634699fb116f",
}


def test_presets_write_the_recorded_bytes(tmp_path):
    same_bytes.write_presets(ROOT / "src", tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    changed = sorted(name for name in got.keys() | PRESET_SHA256.keys() if got.get(name) != PRESET_SHA256.get(name))
    running = f"{' '.join(platform.libc_ver())}, {platform.machine()}"
    assert not changed, f"{changed} differ from the bytes recorded on {RECORDED_ON}; running on {running}"


def test_one_differing_file_reads_diff(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for tree, last in ((base, b"1.0\n"), (head, b"1.0000000000000002\n")):
        tree.mkdir()
        (tree / "kept.csv").write_bytes(b"t\n0.0\n")
        (tree / "moved.csv").write_bytes(b"t\n" + last)
    assert same_bytes.compare(base, head) != 0
    assert capsys.readouterr().out == "equal kept.csv\nDIFF moved.csv\n"


def test_differing_digest_lines_are_named(tmp_path, capsys):
    # Under a digest file's DIFF, each tree's lines that the other lacks follow, so the cases read off.
    base, head = tmp_path / "base", tmp_path / "head"
    for tree, digest in ((base, "aa"), (head, "bb")):
        tree.mkdir()
        (tree / "samples.sha256").write_text(f"integrate spin 00\nintegrate_10dim spin {digest}\n")
    assert same_bytes.compare(base, head) != 0
    assert capsys.readouterr().out == ("DIFF samples.sha256\n"
                                       "  - integrate_10dim spin aa\n"
                                       "  + integrate_10dim spin bb\n")
