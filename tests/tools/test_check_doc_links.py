"""Tests for the docs dead-link / staleness checker CI guard."""

import json

from tools.check_doc_links import (
    dead_links,
    default_files,
    figure_names,
    is_checkable,
    iter_code_references,
    known_flags,
    main,
    module_resolves,
    stale_references,
    stale_tables,
    tree_path_exists,
)


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestCheckable:
    def test_external_and_anchor_links_skipped(self):
        assert not is_checkable("https://example.org/paper.pdf")
        assert not is_checkable("http://example.org")
        assert not is_checkable("mailto:kotz@example.edu")
        assert not is_checkable("#determinism")
        assert not is_checkable("/absolute/site/path")

    def test_relative_paths_checked(self):
        assert is_checkable("scheduling.md")
        assert is_checkable("../README.md")
        assert is_checkable("architecture.md#the-layers")


class TestDeadLinks:
    def test_resolving_links_pass(self, tmp_path):
        write(tmp_path / "docs" / "other.md", "# other")
        doc = write(tmp_path / "docs" / "index.md",
                    "See [other](other.md) and [up](../README.md) "
                    "and [anchored](other.md#top) and [web](https://x.org).")
        write(tmp_path / "README.md", "# readme")
        assert dead_links(doc) == []

    def test_dead_link_reported_with_line_number(self, tmp_path):
        doc = write(tmp_path / "docs" / "index.md",
                    "fine line\nsee [gone](missing.md) here\n")
        assert dead_links(doc) == [(2, "missing.md")]

    def test_dead_anchored_link_reported(self, tmp_path):
        doc = write(tmp_path / "a.md", "[x](gone.md#section)")
        assert dead_links(doc) == [(1, "gone.md#section")]

    def test_image_links_checked_too(self, tmp_path):
        doc = write(tmp_path / "a.md", "![fig](figures/missing.png)")
        assert dead_links(doc) == [(1, "figures/missing.png")]


def make_repo(tmp_path):
    """A miniature repository tree for staleness checks."""
    write(tmp_path / "src" / "repro" / "__init__.py", "")
    write(tmp_path / "src" / "repro" / "sim" / "__init__.py", "")
    write(tmp_path / "src" / "repro" / "sim" / "engine.py",
          "X = 1\n\n\ndef run(until=None, watchdog=None):\n    pass\n")
    write(tmp_path / "src" / "repro" / "experiments" / "figures.py",
          'FIGURES = {\n    "figure3": f3,\n    "service": svc,\n}\n')
    write(tmp_path / "tools" / "demo.py",
          'parser.add_argument("--workers")\n')
    return tmp_path


class TestCodeReferenceScan:
    def test_inline_spans_and_fenced_lines_found(self, tmp_path):
        doc = write(tmp_path / "d.md",
                    "See `src/a.py` here.\n```\npython run.py --fast\n```\n")
        refs = list(iter_code_references(doc.read_text()))
        assert (1, "src/a.py", True) in refs
        assert (3, "python run.py --fast", False) in refs

    def test_fence_markers_not_yielded(self, tmp_path):
        doc = write(tmp_path / "d.md", "```bash\nls\n```\n")
        assert list(iter_code_references(doc.read_text())) == \
            [(2, "ls", False)]


class TestStaleReferences:
    def test_existing_references_pass(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md",
                    "`src/repro/sim/engine.py` and `repro.sim.engine` and "
                    "`repro.sim.engine.X` and `--workers` and\n"
                    "```\nddio-figures service --workers 4\n```\n")
        assert stale_references(doc, root=root) == []

    def test_missing_tree_path_reported(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", "`src/repro/gone.py`")
        assert stale_references(doc, root=root) == \
            [(1, "path", "src/repro/gone.py")]

    def test_pytest_node_id_checks_file_part_only(self, tmp_path):
        root = make_repo(tmp_path)
        write(root / "tests" / "test_x.py", "")
        doc = write(root / "docs" / "a.md", "`tests/test_x.py::TestX`")
        assert stale_references(doc, root=root) == []

    def test_missing_module_reported(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", "`repro.sim.retired_module.attr`")
        assert stale_references(doc, root=root) == \
            [(1, "module", "repro.sim.retired_module.attr")]

    def test_unknown_flag_reported(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", "run with `--no-such-flag`")
        assert stale_references(doc, root=root) == \
            [(1, "flag", "--no-such-flag")]

    def test_unknown_figure_name_reported(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", "```\nddio-figures figure99\n```\n")
        assert stale_references(doc, root=root) == \
            [(2, "figure", "figure99")]

    def test_external_tool_flags_allowed(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", "`pytest --cov=repro`")
        assert stale_references(doc, root=root) == []

    def test_keywords_naming_source_identifiers_pass(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md",
                    "`run(until=5, watchdog=None)` and `watchdog=None` and "
                    "`PYTHONPATH=src python -m repro` and `x == y`\n")
        assert stale_references(doc, root=root) == []

    def test_deleted_keyword_reported(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md",
                    "no more `run(watchdog=1, retired_knob=True)`\n"
                    "```\nrun(fenced_only=1)\n```\n")
        assert stale_references(doc, root=root) == \
            [(1, "keyword", "retired_knob")]
        assert stale_references(doc, root=root,
                                identifiers={"retired_knob",
                                             "watchdog"}) == []


class TestStalenessHelpers:
    def test_tree_path_exists(self, tmp_path):
        root = make_repo(tmp_path)
        assert tree_path_exists("src/repro/sim/engine.py", root)
        assert not tree_path_exists("src/repro/sim/gone.py", root)

    def test_module_resolves_packages_modules_and_attributes(self, tmp_path):
        root = make_repo(tmp_path)
        assert module_resolves("repro.sim", root)
        assert module_resolves("repro.sim.engine", root)
        assert module_resolves("repro.sim.engine.X", root)
        assert not module_resolves("repro.gone.engine.X", root)

    def test_trailing_attribute_must_be_bound_in_the_module(self, tmp_path):
        root = make_repo(tmp_path)
        assert module_resolves("repro.sim.engine.run", root)
        assert not module_resolves("repro.sim.engine.Missing", root)
        # a name used only inside a function body is not a module attribute
        assert not module_resolves("repro.sim.engine.until", root)

    def test_package_attributes_come_from_its_init(self, tmp_path):
        root = make_repo(tmp_path)
        write(root / "src" / "repro" / "disk" / "__init__.py",
              "from repro.disk.drive import (Disk,  # noqa\n"
              "                              BusPort as Port)\n"
              "import numpy.random\n"
              "LIMIT: int = 3\n"
              "A, B = 1, 2\n\n\n"
              "class Spec:\n    inner = 1\n")
        for name in ("Disk", "Port", "numpy", "LIMIT", "A", "B", "Spec"):
            assert module_resolves(f"repro.disk.{name}", root), name
        for name in ("BusPort", "random", "inner", "Gone"):
            assert not module_resolves(f"repro.disk.{name}", root), name

    def test_stale_attribute_reported_in_docs(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md",
                    "`repro.sim.engine.X` and `repro.sim.engine.Y`")
        assert stale_references(doc, root=root, flags=set(),
                                figures=set()) == [
            (1, "module", "repro.sim.engine.Y")]

    def test_two_segment_typo_is_not_excused_as_attribute(self, tmp_path):
        # `repro.<typo>` must not pass just because the top-level package
        # exists: the attribute fallback needs a two-segment module prefix.
        root = make_repo(tmp_path)
        assert not module_resolves("repro.simulation", root)

    def test_precomputed_flags_and_figures_are_honoured(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", "`--workers`")
        assert stale_references(doc, root=root, flags={"--workers"},
                                figures=set()) == []
        assert stale_references(doc, root=root, flags=set(),
                                figures=set()) == [(1, "flag", "--workers")]

    def test_known_flags_harvested_from_sources(self, tmp_path):
        root = make_repo(tmp_path)
        assert "--workers" in known_flags(root)
        assert "--cov" in known_flags(root)  # external allowlist

    def test_figure_names_parsed_without_import(self, tmp_path):
        root = make_repo(tmp_path)
        assert figure_names(root) == {"figure3", "service"}

    def test_figure_names_empty_when_source_missing(self, tmp_path):
        assert figure_names(tmp_path) == set()


def write_artifact(tmp_path, payload):
    return write(tmp_path / "docs" / "data" / "grid.json",
                 json.dumps(payload))


#: A two-record artifact under a ``rows`` key (the default select).
GRID = {"rows": [
    {"K": 1, "scheduler": "fcfs", "throughput_mb": 5.048},
    {"K": 1, "scheduler": "shared-cscan", "throughput_mb": 5.071},
]}

MARKER = ("<!-- doctable source=data/grid.json "
          "row={K}|{scheduler}|{throughput_mb:.2f} -->\n")

TABLE = ("| K | scheduler | MB/s |\n"
         "|---|---|---|\n"
         "| 1 | fcfs | 5.05 |\n"
         "| 1 | shared-cscan | 5.07 |\n")


class TestDoctables:
    def test_matching_table_passes(self, tmp_path):
        write_artifact(tmp_path, GRID)
        doc = write(tmp_path / "docs" / "a.md", MARKER + "\n" + TABLE)
        assert stale_tables(doc) == []

    def test_doc_may_quote_a_subset_of_records(self, tmp_path):
        write_artifact(tmp_path, GRID)
        doc = write(tmp_path / "docs" / "a.md",
                    MARKER + "\n| K | scheduler | MB/s |\n|---|---|---|\n"
                             "| 1 | fcfs | 5.05 |\n")
        assert stale_tables(doc) == []

    def test_bold_and_whitespace_ignored(self, tmp_path):
        write_artifact(tmp_path, GRID)
        doc = write(tmp_path / "docs" / "a.md",
                    MARKER + "\n| K | scheduler | MB/s |\n|---|---|---|\n"
                             "| 1 | fcfs     | **5.05** |\n")
        assert stale_tables(doc) == []

    def test_stale_row_reported_with_line_number(self, tmp_path):
        write_artifact(tmp_path, GRID)
        doc = write(tmp_path / "docs" / "a.md",
                    MARKER + "\n| K | scheduler | MB/s |\n|---|---|---|\n"
                             "| 1 | fcfs | 9.99 |\n")
        assert stale_tables(doc) == \
            [(5, "table-row", "| 1 | fcfs | 9.99 |")]

    def test_missing_artifact_reported(self, tmp_path):
        doc = write(tmp_path / "docs" / "a.md", MARKER + "\n" + TABLE)
        assert stale_tables(doc) == \
            [(1, "doctable", "missing data/grid.json")]

    def test_bad_select_path_reported(self, tmp_path):
        write_artifact(tmp_path, GRID)
        doc = write(tmp_path / "docs" / "a.md",
                    MARKER.replace("doctable ", "doctable select=gone ")
                    + "\n" + TABLE)
        failures = stale_tables(doc)
        assert len(failures) == 1
        assert failures[0][1] == "doctable"

    def test_template_field_absent_from_record_reported(self, tmp_path):
        write_artifact(tmp_path, GRID)
        doc = write(tmp_path / "docs" / "a.md",
                    "<!-- doctable source=data/grid.json row={nope} -->\n\n"
                    + TABLE)
        failures = stale_tables(doc)
        assert len(failures) == 1
        assert failures[0][1] == "doctable"

    def test_marker_without_row_reported(self, tmp_path):
        doc = write(tmp_path / "docs" / "a.md",
                    "<!-- doctable source=data/grid.json -->\n\n" + TABLE)
        assert stale_tables(doc) == \
            [(1, "doctable", "marker needs source= and row=")]

    def test_dangling_marker_reported(self, tmp_path):
        write_artifact(tmp_path, GRID)
        doc = write(tmp_path / "docs" / "a.md",
                    MARKER + "\nprose\nmore prose\nstill prose\nyet more\n"
                             "and more\nno table anywhere\n")
        assert stale_tables(doc) == \
            [(1, "doctable", "no table follows the marker")]

    def test_multiline_marker_with_pivot_mode(self, tmp_path):
        payload = {"rows": [
            {"load": 4, "method": "disk-directed", "mb": 4.54},
            {"load": 4, "method": "traditional", "mb": 3.83},
            {"load": 8, "method": "disk-directed", "mb": 8.84},
            {"load": 8, "method": "traditional", "mb": 4.84},
        ]}
        write_artifact(tmp_path, payload)
        doc = write(tmp_path / "docs" / "a.md",
                    "<!-- doctable source=data/grid.json\n"
                    "     group=load pivot=method\n"
                    "     row={load:g}|{disk_directed__mb:.2f}"
                    "|{traditional__mb:.2f} -->\n\n"
                    "| load | DDIO | TC |\n|---|---|---|\n"
                    "| 4 | 4.54 | 3.83 |\n"
                    "| 8 | 8.84 | 4.84 |\n")
        assert stale_tables(doc) == []

    def test_file_without_markers_has_no_failures(self, tmp_path):
        doc = write(tmp_path / "docs" / "a.md", "# no tables here\n" + TABLE)
        assert stale_tables(doc) == []


class TestMain:
    def test_default_file_set(self, tmp_path):
        write(tmp_path / "README.md", "[d](docs/a.md)")
        write(tmp_path / "docs" / "a.md", "# a")
        files = default_files(tmp_path)
        assert [f.name for f in files] == ["README.md", "a.md"]

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        doc = write(tmp_path / "doc.md", "[ok](other.md)")
        write(tmp_path / "other.md", "x")
        assert main([str(doc)]) == 0
        assert "all links and code references resolve" in \
            capsys.readouterr().out

    def test_exit_one_on_dead_link(self, tmp_path, capsys):
        doc = write(tmp_path / "doc.md", "[bad](nope.md)")
        assert main([str(doc)]) == 1
        assert "nope.md" in capsys.readouterr().out

    def test_exit_one_on_stale_reference(self, tmp_path, capsys):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", "`src/repro/gone.py`")
        assert main([str(doc), "--root", str(root)]) == 1
        assert "stale path" in capsys.readouterr().out

    def test_links_only_skips_staleness(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", "`src/repro/gone.py`")
        assert main([str(doc), "--root", str(root), "--links-only"]) == 0

    def test_exit_one_on_stale_table_row(self, tmp_path, capsys):
        root = make_repo(tmp_path)
        write_artifact(root, GRID)
        doc = write(root / "docs" / "a.md",
                    MARKER + "\n| K | scheduler | MB/s |\n|---|---|---|\n"
                             "| 1 | fcfs | 9.99 |\n")
        assert main([str(doc), "--root", str(root)]) == 1
        assert "stale table-row" in capsys.readouterr().out

    def test_links_only_skips_doctables_too(self, tmp_path):
        root = make_repo(tmp_path)
        doc = write(root / "docs" / "a.md", MARKER + "\n" + TABLE)
        assert main([str(doc), "--root", str(root), "--links-only"]) == 0

    def test_repo_docs_are_clean(self):
        # The real README + docs tree must stay link-clean (what CI enforces).
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        assert main(["--root", str(repo_root)]) == 0
