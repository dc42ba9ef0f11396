import argparse
import hashlib
import json
import random
import time

import pytest

from toresolve import cli, cones, hilbert, resolve3d
from toresolve.classify import ClassifyError, LatticePolytope, classify
from toresolve.cli import MAX_DRAWN_EXTENT, ParseError, main, parse_job, serialize
from toresolve.cones import make_cone
from toresolve.lattice import LatticeVector

from conftest import c3_hulls, count_calls


def write_job(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


C45 = {"lattice_rank": 2, "cones": [{"generators": [[1, 0], [4, 5]]}]}
FIG = {"lattice_rank": 3, "cones": [{"generators": [[-3, 3, 1], [3, 1, 1], [0, -3, 1]]}]}


def test_parse_serialize_round_trip():
    text = serialize(C45)
    job = parse_job(text)
    assert serialize(job) == text


# keys and strings that need escaping, are non-ASCII, or hold brackets like
# the height-certificate keys
TEXTS = ["", "a", "phase", "[0, 1, 1]", "[-3, 3, 1]", 'say "hi"', "back\\slash", "tab\tnew\nline",
         "\x00\x1f\x7f", "caf\u00e9", "\u65e5\u672c", "\u2028", "\U0001f600", "{[}]", "/"]


def random_text(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(TEXTS)
    return "".join(rng.choice(TEXTS) for _ in range(rng.randint(0, 4)))


def random_int(rng: random.Random) -> int:
    bound = 10 ** rng.randint(0, 30)
    return rng.randint(-bound, bound)


def random_doc(rng: random.Random, depth: int = 0):
    """A document of the kinds the CLI writes: nested dicts with string keys,
    lists and tuples (empty, all-int or mixed), ints up to 10^30 in size,
    booleans, None and strings."""
    kind = rng.random() if depth < 4 else 0
    if kind < 0.3:
        return rng.choice([random_int, random_text, lambda r: r.choice([True, False, None])])(rng)
    if kind < 0.45:
        return [random_int(rng) for _ in range(rng.randint(0, 4))]
    if kind < 0.7:
        items = [random_doc(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.3 else items
    return {random_text(rng): random_doc(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_serialize_writes_the_bytes_of_json_dumps():
    rng = random.Random(20261019)
    for _ in range(2000):
        doc = random_doc(rng)
        assert serialize(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n", doc
    # ints and booleans in one list leave the all-int fast path
    doc = {"b": [1, True, 0, False, None], "a": (0, -(10**30)), "": [[], {}, ()]}
    assert serialize(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [0.5, [1, 2.0], {"a": {"b": (1.5,)}}, {1: 2}, {"a": {1, 2}}])
def test_serialize_refuses_other_types(doc):
    with pytest.raises(TypeError):
        serialize(doc)


def test_one_parser_serves_every_job_of_a_process(tmp_path, monkeypatch, capsys):
    """Jobs run one after the other in one process share one parser and
    leave nothing behind for the next job."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        fig = write_job(tmp_path, "fig.json", FIG)
        gens, _argv, noncanonical_digest = GOLDEN["noncanonical"]
        noncanonical = write_job(tmp_path, "nc.json", {"lattice_rank": 3, "cones": [{"generators": gens}]})
        svg, out = tmp_path / "f.svg", tmp_path / "out.json"
        assert main(["resolve3d", "--in", fig, "--out", str(out), "--scale", "10", "--svg", str(svg)]) == 0
        assert main(["resolve3d", "--in", fig, "--out", str(out), "--completion", "3"]) == 0
        svg.unlink()
        assert main(["resolve3d", "--in", noncanonical, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == noncanonical_digest
        assert not svg.exists()
        assert main(["resolve3d", "--in", fig, "--out", str(out), "--completion", "all"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["fig"][2]
        # refusals after a successful job: ours, then argparse's own
        assert main(["render", "--in", fig, "--out", str(out), "--completion", "0"]) == 2
        with pytest.raises(SystemExit) as exit_info:
            main(["resolve3d", "--in", fig])
        assert exit_info.value.code == 2
        assert main(["resolve3d", "--in", noncanonical, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == noncanonical_digest
        assert len(built) == 1
        assert "--completion" in capsys.readouterr().err
    finally:
        cli._parser.cache_clear()


def test_parse_rejects_unknown_fields():
    with pytest.raises(ParseError, match="unknown"):
        parse_job(json.dumps({"lattice_rank": 2, "cones": [], "mystery": 1}))
    with pytest.raises(ParseError):
        parse_job(json.dumps({"lattice_rank": 2, "cones": [{"generators": [[1, 0]], "extra": 2}]}))
    with pytest.raises(ParseError):
        parse_job(json.dumps({"lattice_rank": 2, "cones": [{"generators": [[1, 0, 0]]}]}))


def test_classify_command(tmp_path):
    infile = write_job(tmp_path, "in.json", C45)
    outfile = str(tmp_path / "out.json")
    assert main(["classify", "--in", infile, "--out", outfile]) == 0
    data = json.loads(open(outfile).read())
    report = data["reports"][0]
    assert report["embedding_dimension"] == 6
    assert report["q_gorenstein"]["index"] == 5
    assert report["q_gorenstein"]["m_sigma"] == [
        {"num": 1, "den": 1},
        {"num": -3, "den": 5},
    ]
    assert report["log_terminal"] and not report["canonical"]


def test_hilbert_command_with_relations(tmp_path):
    infile = write_job(tmp_path, "in.json", C45)
    outfile = str(tmp_path / "out.json")
    assert main(["hilbert", "--in", infile, "--out", outfile, "--degree-bound", "2"]) == 0
    data = json.loads(open(outfile).read())
    entry = data["results"][0]
    assert entry["hilbert_basis"] == [[1, 0], [1, 1], [4, 5]]
    assert entry["embedding_dimension"] == 6
    assert len(entry["relations"]) == 10


def test_hilbert_command_degree_bound_zero_writes_empty_relations(tmp_path):
    infile = write_job(tmp_path, "in.json", C45)
    outfile = str(tmp_path / "out.json")
    assert main(["hilbert", "--in", infile, "--out", outfile, "--degree-bound", "0"]) == 0
    assert json.loads(open(outfile).read())["results"][0]["relations"] == []


def test_resolve2d_command(tmp_path):
    infile = write_job(tmp_path, "in.json", C45)
    outfile = str(tmp_path / "out.json")
    assert main(["resolve2d", "--in", infile, "--out", outfile]) == 0
    data = json.loads(open(outfile).read())
    entry = data["results"][0]
    assert entry["rays"] == [[1, 0], [1, 1], [4, 5]]
    assert entry["exceptional"] == [{"ray": [1, 1], "self_intersection": -5}]


def test_resolve3d_command_with_svg(tmp_path):
    infile = write_job(tmp_path, "in.json", FIG)
    outfile = str(tmp_path / "out.json")
    svgfile = str(tmp_path / "out.svg")
    code = main(
        ["resolve3d", "--in", infile, "--out", outfile, "--svg", svgfile, "--completion", "all"]
    )
    assert code == 0
    data = json.loads(open(outfile).read())
    entry = data["results"][0]
    assert len(entry["final_rays"]) == 19
    assert len(entry["maximal_cones"]) == 30
    assert len(entry["completions"]) == 8
    phases = [s["phase"] for s in entry["trace"]]
    assert phases[0] == "canonical" and phases[-1] == "completion"
    svg = open(svgfile).read()
    assert svg.startswith("<svg") and svg.count("<polygon") >= 27


def test_render_command(tmp_path):
    infile = write_job(tmp_path, "in.json", FIG)
    outfile = str(tmp_path / "out.svg")
    assert main(["render", "--in", infile, "--out", outfile, "--scale", "30"]) == 0
    svg = open(outfile).read()
    assert "<svg" in svg and "stroke-dasharray" in svg  # shaded double points


def test_parse_failure_exit_code(tmp_path):
    infile = write_job(tmp_path, "bad.json", "{nope")
    assert main(["classify", "--in", infile, "--out", str(tmp_path / "o.json")]) == 2


def test_domain_error_exit_code(tmp_path):
    infile = write_job(
        tmp_path, "line.json", {"lattice_rank": 2, "cones": [{"generators": [[1, 0], [-1, 0]]}]}
    )
    assert main(["classify", "--in", infile, "--out", str(tmp_path / "o.json")]) == 1


def test_resolve3d_single_completion_selection(tmp_path):
    infile = write_job(tmp_path, "in.json", FIG)
    outfile = str(tmp_path / "out.json")
    assert main(["resolve3d", "--in", infile, "--out", outfile, "--completion", "3"]) == 0
    data = json.loads(open(outfile).read())
    comps = data["results"][0]["completions"]
    assert len(comps) == 1
    assert len(comps[0]["maximal_cones"]) == 30
    assert len(comps[0]["height_certificate"]) == 19


def test_reports_deterministic(tmp_path):
    infile = write_job(tmp_path, "in.json", FIG)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["resolve3d", "--in", infile, "--out", out1]) == 0
    assert main(["resolve3d", "--in", infile, "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def test_completion_index_out_of_range_exits_one(tmp_path, capsys):
    square = {"lattice_rank": 3, "cones": [{"generators": [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]}]}
    infile = write_job(tmp_path, "in.json", square)
    outfile = str(tmp_path / "out.json")
    for bad in ["99", "2", "-1", "first"]:
        assert main(["resolve3d", "--in", infile, "--out", outfile, "--completion", bad]) == 1
        err = capsys.readouterr().err
        assert f"--completion {bad}" in err and "2^1 completions (1 unit parallelograms)" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["0_1", " 1", "+1", "\u0663"])
def test_completion_index_takes_only_ascii_digits(tmp_path, capsys, bad):
    """``int`` reads each of these as an index of FIG's 8 completions (the
    last is an Arabic-Indic three); the CLI refuses them as it refuses an
    index out of range, and writes no output."""
    infile = write_job(tmp_path, "in.json", FIG)
    outfile = tmp_path / "out.json"
    assert main(["resolve3d", "--in", infile, "--out", str(outfile), "--completion", bad]) == 1
    err = capsys.readouterr().err
    assert f"--completion {bad}: expected 'all' or an index below the 2^3 completions (3 unit parallelograms)" in err
    assert "Traceback" not in err and not outfile.exists()


def test_parse_rejects_boolean_rank(tmp_path):
    job = {"lattice_rank": True, "cones": [{"generators": [[1]]}]}
    with pytest.raises(ParseError, match="lattice_rank"):
        parse_job(json.dumps(job))
    infile = write_job(tmp_path, "in.json", job)
    assert main(["classify", "--in", infile, "--out", str(tmp_path / "o.json")]) == 2


def test_completions_in_input_lattice(tmp_path):
    # grading functional (1,0,0): the polygon frame differs from the input lattice
    job = {
        "lattice_rank": 3,
        "cones": [{"generators": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]}],
    }
    infile = write_job(tmp_path, "in.json", job)
    outfile = str(tmp_path / "out.json")
    assert main(["resolve3d", "--in", infile, "--out", outfile, "--completion", "all"]) == 0
    entry = json.loads(open(outfile).read())["results"][0]
    as_sets = lambda cones: {frozenset(map(tuple, gens)) for gens in cones}
    first = entry["completions"][0]
    assert as_sets(first["maximal_cones"]) == as_sets(entry["maximal_cones"])
    assert first["rays"] == entry["final_rays"]
    assert sorted(first["height_certificate"]) == sorted(str(r) for r in entry["final_rays"])


def test_every_listed_completion_of_a_hull_has_area_many_cones_and_every_point(tmp_path, monkeypatch, capsys):
    """Each completion that ``--completion all`` writes for a C3 hull cone
    (one Gorenstein piece) has as many maximal cones as the hull's normalized
    area 2i + b - 2 (Pick), the Euler number of a crepant resolution
    (Batyrev-Dais), and every lattice point of the hull at height one as a
    ray.  The listing cap is lowered to 64, so the hulls with more
    completions exit 1 before any completion is built."""
    monkeypatch.setattr(cli, "MAX_LISTED_COMPLETIONS", 64)
    listed = refused = 0
    for hull in c3_hulls():
        polygon = LatticePolytope.from_points(hull)
        points = polygon.lattice_points()
        interior = len(polygon.interior_points())
        area = 2 * interior + (len(points) - interior) - 2
        assert area == polygon.area2()
        gens = [[x, y, 1] for x, y in hull]
        infile = write_job(tmp_path, "in.json", {"lattice_rank": 3, "cones": [{"generators": gens}]})
        outfile = tmp_path / "out.json"
        if main(["resolve3d", "--in", infile, "--out", str(outfile), "--completion", "all"]) == 1:
            assert "more than the 64 that are listed" in capsys.readouterr().err
            refused += 1
            continue
        completions = json.loads(outfile.read_text())["results"][0]["completions"]
        for entry in completions:
            assert len(entry["maximal_cones"]) == area
            assert entry["rays"] == sorted([x, y, 1] for x, y in points)
        listed += len(completions)
    assert (listed, refused) == (392, 21)


def test_render_index_two_cone(tmp_path):
    job = {"lattice_rank": 3, "cones": [{"generators": [[1, 0, 0], [0, 1, 0], [1, 1, 2]]}]}
    infile = write_job(tmp_path, "in.json", job)
    outfile = str(tmp_path / "out.svg")
    assert main(["render", "--in", infile, "--out", outfile]) == 0
    assert open(outfile).read().startswith("<svg")


CUBE = [[x, y, z, 1] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]

# SHA-256 of the CLI output for fixed jobs; any change to these bytes is a
# change of the program's output and must be deliberate.
GOLDEN = {
    "fig": (FIG["cones"][0]["generators"], ["resolve3d", "--completion", "all"],
            "8e7e876861e812270aceb2f407462dbbfd3d5e8c5beb681d0705782e5fc98dcd"),
    "strip": ([[0, 0, 1], [4, 0, 1], [4, 1, 1], [0, 1, 1]], ["resolve3d", "--completion", "all"],
              "a835884c7452deb069241466df277cf4cd423d0b06df6ddd260543ba560fb1d4"),
    "triangle": ([[0, 0, 1], [5, 0, 1], [0, 2, 1]], ["resolve3d", "--completion", "all"],
                 "90521cc5830fb0442df601a0a9995b3b5c3770ad31a9bef597845c908ee75d48"),
    "noncanonical": ([[5, -1, -1], [0, 1, 0], [0, 0, 1]], ["resolve3d"],
                     "f3e1d6cafd769bdff1c9528ba07c31d337fd4463c4e4ad38f69dd92cfbde168d"),
    "index-two": ([[0, 1, 0], [0, 0, 1], [2, -1, -1]], ["resolve3d"],
                  "4f5f6dd95626307b0e690b48900c2dccc53a61e6897c61fcb67bb1b08286a401"),
    "render-fig": (FIG["cones"][0]["generators"], ["render"],
                   "489273013a9d76f588dff680452074aebf6341bdecc1af2f26588b2636ca85fc"),
    "fig-completion-3": (FIG["cones"][0]["generators"], ["resolve3d", "--completion", "3"],
                         "bb082cdc2cb69c0002e256e5408753cb5fe3968976645ca00f552adc31c705a5"),
    "basic-all": ([[1, 2, 1], [2, 2, 1], [3, 3, 1]], ["resolve3d", "--completion", "all"],
                  "4608a11349bcbae56cf50d93ecbdcd6e24dfa451009308cd66969a4ff273c3d6"),
    "index-two-all": ([[1, 0, 0], [0, 1, 0], [1, 1, 2]], ["resolve3d", "--completion", "all"],
                      "628edbe49d89c11b4d6ba5389c6208e7e393760efd888870289f31688f8b7bb9"),
    # an argv ending in --svg pins the SVG file rather than --out
    "fig-svg": (FIG["cones"][0]["generators"], ["resolve3d", "--svg"],
                "489273013a9d76f588dff680452074aebf6341bdecc1af2f26588b2636ca85fc"),
    # the plane is not full-dimensional, so it goes through its span lattice
    "classify-plane": ([[1, 0, 0], [1, 2, 0]], ["classify"],
                       "76e1d137fe82b86d1dfa46f227ce4b443e4768132a63920014691f7f69a4db78"),
    "classify-square": ([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]], ["classify"],
                        "e09fa7b6491811a13c478574f9c77d7bccd61fb3ddaafae6c1c846936e06e32a"),
    "classify-index-two": ([[1, 0, 0], [0, 1, 0], [1, 1, 2]], ["classify"],
                           "be038dbf7f95266340525a33aabf89b2c43ff2374aa1c20a8af1654c7d69376c"),
    "hilbert-plane": ([[1, 0, 0], [1, 2, 0]], ["hilbert", "--degree-bound", "2"],
                      "b13bdf04fa41b17aa4591814aa50a558a680188402b3c7c11fe137718da76e0c"),
    "hilbert-square": ([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]], ["hilbert", "--degree-bound", "2"],
                       "1cce62ef0f9ae3658e225bc25b4ded08e0491b0fb99de9aead95e03fc640a72b"),
    # the rank-4 cone over the cube [-1, 1]^3 at height 1: square facets in
    # the pulling triangulation; its Hilbert bases are the box oracle's
    "classify-cube": (CUBE, ["classify"],
                      "3dcea18097dd5c1a945bc95b3810795f2c58e63978eeedfd4b0d21b0eaafa067"),
    "hilbert-cube": (CUBE, ["hilbert", "--degree-bound", "2"],
                     "cbdf27ae53c5cfa523c9209eee7037195dd579b83498e6b38a6a5f8f710fb730"),
    "resolve2d-45": ([[1, 0], [4, 5]], ["resolve2d"],
                     "bf785058fb966a79f2be642b57385011e388caf47baddaf73dcb06df85728c08"),
    "resolve2d-76": ([[0, 1], [7, -6]], ["resolve2d"],
                     "0207931724f1d1b47fd971d1a1cb0f29fac0f60f6e272d4687bf3ae38dbdcce6"),
}


@pytest.mark.parametrize("gens, argv, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_golden_cli_bytes(tmp_path, gens, argv, digest):
    infile = write_job(tmp_path, "in.json", {"lattice_rank": len(gens[0]), "cones": [{"generators": gens}]})
    outfile = tmp_path / "out"
    pinned = outfile
    if argv[-1] == "--svg":
        pinned = tmp_path / "out.svg"
        argv = [*argv, str(pinned)]
    assert main([argv[0], "--in", infile, "--out", str(outfile), *argv[1:]]) == 0
    assert hashlib.sha256(pinned.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("classify", ["--completion", "99"], "--completion"),
        ("render", ["--completion", "0"], "--completion"),
        ("hilbert", ["--svg", "x.svg"], "--svg"),
        ("resolve2d", ["--svg", "x.svg"], "--svg"),
        ("classify", ["--degree-bound", "2"], "--degree-bound"),
        ("resolve3d", ["--degree-bound", "0"], "--degree-bound"),
        ("render", ["--scale", "0"], "--scale"),
        ("resolve3d", ["--svg", "x.svg", "--scale", "-3"], "--scale"),
        ("hilbert", ["--degree-bound", "-1"], "--degree-bound"),
    ],
)
def test_refused_flags_exit_two(tmp_path, capsys, command, flags, named):
    job = C45 if command in ("classify", "hilbert", "resolve2d") else FIG
    infile = write_job(tmp_path, "in.json", job)
    outfile = tmp_path / "out"
    assert main([command, "--in", infile, "--out", str(outfile), *flags]) == 2
    err = capsys.readouterr().err
    assert named in err and command in err and "Traceback" not in err
    assert not outfile.exists()


def test_completion_all_capped(tmp_path, capsys):
    # 11 unit squares: 2^11 = 2048 completions, above the cap of 1024
    strip = {"lattice_rank": 3, "cones": [{"generators": [[0, 0, 1], [11, 0, 1], [11, 1, 1], [0, 1, 1]]}]}
    infile = write_job(tmp_path, "in.json", strip)
    outfile = tmp_path / "out.json"
    assert main(["resolve3d", "--in", infile, "--out", str(outfile), "--completion", "all"]) == 1
    err = capsys.readouterr().err
    assert "2^11" in err and "Traceback" not in err
    assert main(["resolve3d", "--in", infile, "--out", str(outfile), "--completion", "2047"]) == 0
    assert len(json.loads(outfile.read_text())["results"][0]["completions"]) == 1


def test_completion_all_refusal_names_the_count_as_a_power_of_two(tmp_path, capsys):
    # 200 unit squares: 2^200 completions, a 61-digit number, named in one short line
    strip = {"lattice_rank": 3, "cones": [{"generators": [[0, 0, 1], [200, 0, 1], [200, 1, 1], [0, 1, 1]]}]}
    infile = write_job(tmp_path, "in.json", strip)
    outfile = tmp_path / "out.json"
    start = time.perf_counter()
    assert main(["resolve3d", "--in", infile, "--out", str(outfile), "--completion", "all"]) == 1
    assert time.perf_counter() - start < 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200, lines
    assert "2^200 completions (200 unit parallelograms)" in lines[0]
    assert not outfile.exists()


@pytest.mark.parametrize("bad", ["x", str(2**200)])
def test_completion_index_refusal_names_the_count_as_a_power_of_two(tmp_path, capsys, bad):
    # the same strip: an index that is no number, or one past the last, is refused in one line that
    # names the count as 2^200 (the 61-digit count in full made it 202 characters long for "x")
    strip = {"lattice_rank": 3, "cones": [{"generators": [[0, 0, 1], [200, 0, 1], [200, 1, 1], [0, 1, 1]]}]}
    infile = write_job(tmp_path, "in.json", strip)
    outfile = tmp_path / "out.json"
    assert main(["resolve3d", "--in", infile, "--out", str(outfile), "--completion", bad]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"toresolve: --completion {bad}: expected 'all' or an index below the "
        "2^200 completions (200 unit parallelograms)"
    ]
    assert not outfile.exists()


def test_resolve3d_job_resolves_each_piece_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, resolve3d.resolve_piece)
    infile = write_job(tmp_path, "in.json", FIG)
    argv = ["resolve3d", "--in", infile, "--out", str(tmp_path / "out.json"),
            "--completion", "0", "--svg", str(tmp_path / "out.svg")]
    assert main(argv) == 0
    assert len(calls) == 1


def test_resolve3d_job_reuses_the_grading(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, cones._solve_grading)
    infile = write_job(tmp_path, "in.json", FIG)
    assert main(["resolve3d", "--in", infile, "--out", str(tmp_path / "out.json"), "--completion", "0"]) == 0
    assert len(calls) <= 3


def test_single_completion_builds_only_that_completion(tmp_path, monkeypatch):
    # one completion inside resolve(), one for the listing
    calls = count_calls(monkeypatch, resolve3d._completion_for_bits)
    infile = write_job(tmp_path, "in.json", FIG)
    outfile = str(tmp_path / "out.json")
    assert main(["resolve3d", "--in", infile, "--out", outfile, "--completion", "3"]) == 0
    assert len(calls) == 2


INDEX_TWO = {"lattice_rank": 3, "cones": [{"generators": [[0, 1, 0], [0, 0, 1], [2, -1, -1]]}]}
BASIC = {"lattice_rank": 3, "cones": [{"generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}


@pytest.mark.parametrize("job, most", [(FIG, 1), (INDEX_TWO, 2)])
def test_resolve3d_job_solves_each_grading_once(tmp_path, monkeypatch, job, most):
    # FIG: the input cone's grading only; INDEX_TWO: also the cover's, to check its index
    calls = count_calls(monkeypatch, cones._solve_grading)
    infile = write_job(tmp_path, "in.json", job)
    assert main(["resolve3d", "--in", infile, "--out", str(tmp_path / "out.json"), "--completion", "0"]) == 0
    assert len(calls) == most


@pytest.mark.parametrize("job, most", [(FIG, 1), (INDEX_TWO, 2)])
def test_render_job_takes_the_piece_grading_from_the_floor(tmp_path, monkeypatch, job, most):
    # the piece's grading comes from the canonical step; INDEX_TWO also solves its cover's
    calls = count_calls(monkeypatch, cones._solve_grading)
    infile = write_job(tmp_path, "in.json", job)
    assert main(["render", "--in", infile, "--out", str(tmp_path / "out.svg")]) == 0
    assert len(calls) == most


@pytest.mark.parametrize(
    "job, which, listed, builds",
    [(FIG, "0", 1, 1), (FIG, "all", 8, 8), (BASIC, "0", 1, 1), (BASIC, "all", 1, 1)],
)
def test_completion_listing_reuses_completion_zero(tmp_path, monkeypatch, job, which, listed, builds):
    # resolve() builds completion 0 of every piece but a basic input cone
    calls = count_calls(monkeypatch, resolve3d._completion_for_bits)
    infile = write_job(tmp_path, "in.json", job)
    outfile = tmp_path / "out.json"
    assert main(["resolve3d", "--in", infile, "--out", str(outfile), "--completion", which]) == 0
    assert len(calls) == builds
    assert len(json.loads(outfile.read_text())["results"][0]["completions"]) == listed


def test_hilbert_job_computes_the_dual_basis_once(tmp_path, monkeypatch):
    # one Hilbert basis of the cone, one of its dual for both the embedding dimension and the relations
    calls = count_calls(monkeypatch, hilbert.hilbert_basis)
    infile = write_job(tmp_path, "in.json", FIG)
    assert main(["hilbert", "--in", infile, "--out", str(tmp_path / "out.json"), "--degree-bound", "2"]) == 0
    assert len(calls) == 2


HUGE = 10**30

HOSTILE_JOBS = [
    {"lattice_rank": 3, "cones": [{"generators": [[HUGE, 1, 1], [0, 1, 0], [0, 0, 1]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[-HUGE, 7, 1], [0, 1, 0], [0, 0, 1]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[2**63, 2**63 + 1, 5], [3, HUGE, 1], [0, 0, 1]]}]},
    {"lattice_rank": 2, "cones": [{"generators": [[2**64, 3], [0, 1]]}]},
    {"lattice_rank": 1, "cones": [{"generators": [[HUGE]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[0, 0, 0]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[0, 0, 0], [1, 0, 0]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[1, 2, 3], [2, 4, 6]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[1, 0, 0], [-1, 0, 0], [0, 1, 0]]}]},
    {"lattice_rank": 2, "cones": [{"generators": [[1, 0], [3, 0]]}]},
    {"lattice_rank": 2, "cones": [{"generators": [[1, 0], [0, 1]]}, {"generators": [[0, 0]]}]},
    {"lattice_rank": 4, "cones": [{"generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 3]]}]},
    {"lattice_rank": 5, "cones": [{"generators": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 2, 0, 0]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[1, 0, 0], [0, 1, 0]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[1, "2", 3]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[1.5, 2, 3]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[True, 0, 1]]}]},
    {"lattice_rank": 3, "cones": [{"generators": [[1, 0]]}]},
    {"lattice_rank": 3, "cones": [{"generators": []}]},
    {"lattice_rank": 3, "cones": []},
    {"lattice_rank": 0, "cones": [{"generators": [[]]}]},
    {"lattice_rank": -2, "cones": [{"generators": [[1, 0]]}]},
    {"cones": [{"generators": [[1, 0]]}]},
    [[1, 0, 0]],
    "{not json",
    "",
    {"lattice_rank": 3, "cones": [{"generators": [[-HUGE, 7, 1], [1, 0, 0], [0, 1, 0]]}]},
]


def test_huge_basic_cone_finishes_at_once(tmp_path, capsys):
    """A basic cone with a 10^30 coordinate: its unimodular height-one
    triangle has no interior point by Pick's theorem, so nothing scans it;
    classify walks the one coset of its unimodular simplex and reports it
    smooth, terminal and canonical, and render and --svg refuse to draw a
    triangle 10^30 lattice units across."""
    job = {"lattice_rank": 3, "cones": [{"generators": [[-HUGE, 7, 1], [1, 0, 0], [0, 1, 0]]}]}
    infile = write_job(tmp_path, "in.json", job)
    expected = {
        ("resolve3d",): 0,
        ("resolve3d", "--completion", "all"): 0,
        ("resolve3d", "--completion", "0"): 0,
        ("hilbert",): 0,
        ("classify",): 0,
        ("render",): 1,
        ("resolve3d", "--svg", str(tmp_path / "out.svg")): 1,
    }
    for command, rc in expected.items():
        outfile = tmp_path / f"out-{command[0]}"
        start = time.perf_counter()
        assert main([command[0], "--in", infile, "--out", str(outfile), *command[1:]]) == rc
        assert time.perf_counter() - start < 1, command
    report = json.loads((tmp_path / "out-classify").read_text())["reports"][0]
    assert report["smooth"] and report["terminal"] and report["canonical"], report
    assert report["embedding_dimension"] == 3, report
    err = capsys.readouterr().err
    refusals = [line for line in err.splitlines() if f"more than the {MAX_DRAWN_EXTENT} that are drawn" in line]
    assert len(refusals) == 2
    # each drawing refusal names the input cone, not the polygon in its own frame
    assert all(str(tuple(g)) in line for line in refusals for g in job["cones"][0]["generators"])
    assert not (tmp_path / "out.svg").exists()


def test_classify_refuses_huge_simplices_at_once(tmp_path, capsys):
    """Hostile jobs 0 to 3, and a non-simplicial Gorenstein cone whose
    pulling triangulation has simplices of determinant 10^30 and 10^30 + 1:
    classify refuses each with exit 1 in under a second, before any point
    is walked, and the message names the input cone."""
    quad = [[0, 0, 1], [1, 0, 1], [HUGE, HUGE + 1, 1], [0, 1, 1]]
    jobs = HOSTILE_JOBS[:4] + [{"lattice_rank": 3, "cones": [{"generators": quad}]}]
    outfile = tmp_path / "out.json"
    for j, job in enumerate(jobs):
        infile = write_job(tmp_path, f"job{j}.json", job)
        start = time.perf_counter()
        assert main(["classify", "--in", infile, "--out", str(outfile)]) == 1, job
        assert time.perf_counter() - start < 1, job
        err = capsys.readouterr().err
        assert "that can be enumerated" in err, err
        assert all(str(tuple(g)) in err for g in job["cones"][0]["generators"]), err
    assert not outfile.exists()


def test_low_dimensional_refusal_names_the_input_cone(tmp_path, capsys):
    """A plane cone in rank 3 is classified through its span lattice, but
    the refusal of its 10^30-point parallelepiped names the input cone, in
    input coordinates, through ``classify`` and through the CLI (exit 1)."""
    gens = [[HUGE, 1, 0], [0, 1, 0]]
    cone = make_cone([LatticeVector(tuple(g)) for g in gens])
    with pytest.raises(ClassifyError) as refusal:
        classify(cone)
    assert str(refusal.value).startswith(f"classification of {cone}: "), refusal.value
    infile = write_job(tmp_path, "in.json", {"lattice_rank": 3, "cones": [{"generators": gens}]})
    outfile = tmp_path / "out.json"
    assert main(["classify", "--in", infile, "--out", str(outfile)]) == 1
    assert capsys.readouterr().err == f"toresolve: {refusal.value}\n"
    assert not outfile.exists()


def test_dual_walk_refusal_names_the_input_cone(tmp_path, capsys):
    """A cone that is not Q-Gorenstein walks no grading slab, and its dual
    has a simplex of 10^30 cosets: classify refuses it with exit 1 in under
    a second, in one stderr line that names the input cone (not only the
    dual simplex), and writes no output file."""
    gens = [[1, 0, 0], [0, 1, 0], [1, 1, HUGE], [1, 0, 1]]
    infile = write_job(tmp_path, "in.json", {"lattice_rank": 3, "cones": [{"generators": gens}]})
    outfile = tmp_path / "out.json"
    start = time.perf_counter()
    assert main(["classify", "--in", infile, "--out", str(outfile)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("toresolve: classification of Cone[") and err.count("\n") == 1, err
    named = err[: err.index("]: ")]
    assert all(str(tuple(g)) in named for g in gens), err
    assert not outfile.exists()


PAST_BUDGET_2D = [[1, 0], [1, 10**18 + 3]]
PAST_BUDGET_3D = [[1, 0, 0], [0, 1, 0], [1, 1, 10**9 + 7]]


@pytest.mark.parametrize(
    "command, gens",
    [
        ("hilbert", PAST_BUDGET_2D),
        ("classify", PAST_BUDGET_2D),
        ("resolve2d", PAST_BUDGET_2D),
        ("hilbert", PAST_BUDGET_3D),
        ("classify", PAST_BUDGET_3D),
    ],
)
def test_walks_past_the_coset_budget_are_refused_at_once(tmp_path, capsys, command, gens):
    """A parallelepiped of more than 10^7 cosets is refused before any coset
    is walked or listed: exit 1 in under a second, one stderr line naming
    the cone and the budget, no output file."""
    assert hilbert.MAX_COSETS == 10**7
    infile = write_job(tmp_path, "in.json", {"lattice_rank": len(gens[0]), "cones": [{"generators": gens}]})
    outfile = tmp_path / "out.json"
    start = time.perf_counter()
    assert main([command, "--in", infile, "--out", str(outfile)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("toresolve: ") and err.count("\n") == 1, err
    assert "more than the 10000000 that can be enumerated" in err, err
    assert all(str(tuple(g)) in err for g in gens), err
    assert not outfile.exists()


FUZZ_COMMANDS = [
    ["classify"],
    ["hilbert"],
    ["hilbert", "--degree-bound", "2"],
    ["resolve2d"],
    ["resolve3d"],
    ["resolve3d", "--completion", "all"],
    ["resolve3d", "--completion", "1"],
    ["resolve3d", "--svg", "{svg}"],
    ["render"],
]


def fuzz_jobs(seed: int = 20261018, count: int = 80) -> list:
    """The hostile jobs and ``count`` seeded random ones: ranks 1 to 5, rank
    3 most often, one to rank + 2 generators in [-3, 3] (in [-1, 1] from
    rank 4 on, where the Hilbert bases' parallelepipeds grow with the
    determinant), one or two cones per job.  Half of the jobs draw their
    last coordinates from [1, 3], so that their cones are pointed."""
    rng = random.Random(seed)
    jobs = list(HOSTILE_JOBS)
    for _ in range(count):
        rank = rng.choice((1, 2, 2, 3, 3, 3, 3, 4, 5))
        bound = 3 if rank <= 3 else 1
        last = (1, 3) if rng.random() < 0.5 else (-bound, bound)

        def generator():
            return [rng.randint(-bound, bound) for _ in range(rank - 1)] + [rng.randint(*last)]

        cones = [
            {"generators": [generator() for _ in range(rng.randint(1, rank + 2))]}
            for _ in range(rng.choice((1, 1, 2)))
        ]
        jobs.append({"lattice_rank": rank, "cones": cones})
    return jobs


def test_cli_fuzz_exits_cleanly(tmp_path, capsys):
    """Every command on every hostile or random job exits 0, 1 or 2 and
    writes no traceback; the huge generators are refused with exit 1 by
    every command that takes their rank."""
    exits = {}
    for j, job in enumerate(fuzz_jobs()):
        infile = write_job(tmp_path, f"job{j}.json", job)
        for command in FUZZ_COMMANDS:
            argv = [a.format(svg=tmp_path / "out.svg") for a in command]
            try:
                rc = main([argv[0], "--in", infile, "--out", str(tmp_path / "out"), *argv[1:]])
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # an exception escaping main is a traceback
                pytest.fail(f"{command} on {job}: {e!r}")
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), (command, job, rc)
            assert "Traceback" not in err, (command, job, err)
            exits[j, " ".join(command)] = rc
    for j in range(3):
        assert all(exits[j, " ".join(c)] == 1 for c in FUZZ_COMMANDS if c[0] != "resolve2d"), j
    assert exits[3, "resolve2d"] == exits[3, "hilbert"] == exits[3, "classify"] == 1
    assert {0, 1, 2} <= set(exits.values())
