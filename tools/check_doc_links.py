#!/usr/bin/env python
"""Fail when documentation contains dead links or stale code references.

Two layers of guard over ``README.md`` and ``docs/*.md``:

**Dead links.**  Scans Markdown for inline links and image references, and
checks that every *relative* target exists on disk, resolved against the file
containing the link.  External links (``http://``, ``https://``,
``mailto:``) and pure in-page anchors (``#section``) are not checked — this
is a repository-consistency guard, not a crawler.  Anchored file links
(``architecture.md#the-layers``) are checked for file existence only.

**Staleness.**  Documentation rots in ways a link checker cannot see: a
renamed module, a dropped CLI flag, a retired experiment family.  The
staleness pass grep-checks four kinds of inline-code references against the
tree (no imports, so it runs in a bare CI image):

* *tree paths* — code spans that look like repository paths
  (``src/repro/sim/engine.py``, ``tools/check_schema_bump.py``,
  ``benchmarks/``, a pytest node id) must exist on disk;
* *module paths* — dotted ``repro.*`` references (``repro.workload.driver``)
  must resolve to a module under ``src/``, allowing one trailing attribute
  segment (``repro.experiments.runner.CACHE_SCHEMA_VERSION``) that the
  module binds at top level (a ``def``, ``class``, assignment or import);
* *CLI flags and figure names* — every ``--flag`` mentioned in the docs must
  appear verbatim in some Python source under ``src/``, ``tools/``,
  ``benchmarks/``, ``perfbench/`` or ``examples/`` (or be a known
  external-tool flag), and
  every ``ddio-figures NAME`` command must name a key of the ``FIGURES``
  registry (parsed textually from ``src/repro/experiments/figures.py``);
* *keywords* — every ``name=value`` keyword in an inline code span
  (``retain_requests=False``, ``Machine(device="ssd")``) must name an
  identifier that appears in some Python source under the same trees, so
  a doc that still names a deleted knob fails.  Snake-case names only:
  ``PYTHONPATH=src`` is an environment variable, not a keyword.

**Quoted numbers.**  Markdown tables that quote measured results carry a
``doctable`` marker tying them to their ``docs/data/*.json`` artifact::

    <!-- doctable source=data/service_sched.json select=policy_grid
         row={K}|{scheduler}|{load_req_s:g}|{throughput_mb:.2f}|{p99_ms:.0f} -->

At check time every data row of the table that follows is re-rendered from
the JSON via the ``row`` template (``str.format`` specs per cell, cells
joined with ``|``); a doc row that matches no JSON record fails the check —
so editing the model without regenerating the artifact, or hand-tweaking a
quoted number, is caught in CI.  The doc may quote a *subset* of the
records (rows are matched set-wise, ``**bold**`` and whitespace ignored).
Pivoted tables (one doc row spanning several JSON records) declare
``group=<field> pivot=<field>``: records are grouped by the ``group`` field
and each group member's fields are exposed to the template as
``{<pivot-value>__<field>}`` with ``-`` mapped to ``_`` (e.g.
``{disk_directed__throughput_mb:.2f}``).

CI runs this on every pull request::

    python tools/check_doc_links.py

Exit status 0 when everything resolves, 1 otherwise (each failure is
reported as ``file:line: kind -> reference``).
"""

import argparse
import json
import re
import sys
from pathlib import Path

#: Inline Markdown links/images: [text](target) / ![alt](target).
#: Reference-style definitions ([name]: target) are rare here and skipped.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Schemes that are not filesystem paths.
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

#: Inline code spans (single-backtick; fenced blocks are handled separately).
_CODE_SPAN_RE = re.compile(r"`([^`]+)`")

#: A code span that looks like a repository path.  Top-level trees only, so
#: prose like `a/b` never false-positives.
_TREE_PATH_RE = re.compile(
    r"^(?:src|tools|benchmarks|examples|tests|docs)/[\w./-]*$")

#: A dotted module reference into the package.
_MODULE_RE = re.compile(r"^repro(?:\.\w+)+$")

#: A CLI long flag.
_FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")

#: A ``name=value`` keyword (not ``==``, not a ``--flag=value``).
_KEYWORD_RE = re.compile(r"(?<![\w.=-])([a-z_][a-z0-9_]*)=(?!=)")

#: A Python identifier, as harvested from the sources.
_IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")

#: ``ddio-figures NAME`` commands (however invoked).
_FIGURE_CMD_RE = re.compile(r"ddio-figures\s+([a-z][a-z0-9-]*)")

#: Flags that belong to external tools the docs legitimately mention.
_EXTERNAL_FLAGS = frozenset({
    "--benchmark-columns", "--benchmark-json", "--cov", "--cov-fail-under",
    "--cov-report", "--import-mode", "--upgrade",
})

#: Where project CLI flags and keyword names are defined.
_FLAG_SOURCE_DIRS = ("src", "tools", "benchmarks", "perfbench", "examples")

#: The figure registry, parsed textually (CI's docs job has no numpy).
_FIGURES_SOURCE = "src/repro/experiments/figures.py"

#: CLI pseudo-figures accepted beside the registry keys.
_FIGURE_EXTRAS = frozenset({"all", "claims"})


def iter_links(text):
    """Yield ``(line_number, target)`` for every inline link in *text*."""
    for line_number, line in enumerate(text.splitlines(), start=1):
        for match in _LINK_RE.finditer(line):
            yield line_number, match.group(1)


def is_checkable(target):
    """Whether *target* is a relative path this guard should verify."""
    if target.startswith(_EXTERNAL):
        return False
    if target.startswith("#"):
        return False  # in-page anchor
    if target.startswith("/"):
        return False  # site-absolute: nothing sensible to resolve against
    return True


def dead_links(markdown_path, repo_root=None):
    """The list of ``(line, target)`` links in *markdown_path* that do not resolve."""
    markdown_path = Path(markdown_path)
    del repo_root  # relative links resolve against the containing file only
    missing = []
    text = markdown_path.read_text(encoding="utf-8")
    for line_number, target in iter_links(text):
        if not is_checkable(target):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        resolved = (markdown_path.parent / path_part)
        if not resolved.exists():
            missing.append((line_number, target))
    return missing


# -- staleness checks --------------------------------------------------------------

def iter_code_references(text):
    """Yield ``(line_number, text, inline)`` for inline spans and
    fenced-block lines (``inline`` is False for the latter)."""
    in_fence = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            yield line_number, stripped, False
        else:
            for match in _CODE_SPAN_RE.finditer(line):
                yield line_number, match.group(1), True


def tree_path_exists(reference, root):
    """Whether a path-looking code span resolves in the repository."""
    path = reference.split("::", 1)[0]  # strip a pytest node id
    return (Path(root) / path).exists()


#: Module-level bindings, read textually (column-0 statements only).
_TOP_DEF_RE = re.compile(r"^(?:async\s+def|def|class)\s+(\w+)", re.M)
_TOP_ASSIGN_RE = re.compile(r"^(\w+(?:\s*,\s*\w+)*)\s*(?::|=(?!=))", re.M)
_TOP_IMPORT_RE = re.compile(
    r"^(?:from\s+[\w.]+\s+)?import\s+(\([^)]*\)|[^\n]*)", re.M)


def top_level_names(source):
    """Names *source* binds at module level: ``def``, ``class``, assignment
    (plain, annotated or tuple) or import.

    A textual approximation — no parsing, no imports — so a column-0 line
    inside a docstring can add a spurious name, but a name bound only in a
    function body is never reported.
    """
    names = set(_TOP_DEF_RE.findall(source))
    for targets in _TOP_ASSIGN_RE.findall(source):
        names.update(target.strip() for target in targets.split(","))
    for clause in _TOP_IMPORT_RE.findall(source):
        clause = re.sub(r"#[^\n]*", "", clause).strip("()")
        for item in clause.split(","):
            words = item.split()
            if words:
                # ``import a.b`` binds ``a``; ``... as c`` binds ``c``.
                names.add(words[-1].split(".")[0])
    return names


def _module_source(base):
    """The source file of module or package *base* (a path without suffix)."""
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.exists():
            return candidate
    return None


def module_resolves(reference, root):
    """Whether a dotted ``repro.*`` span resolves under ``src/``.

    The full dotted path may name a module or a package; one trailing
    segment may instead be an attribute (class, function, constant) of the
    resolved module, which must then be bound at that module's top level
    (:func:`top_level_names`, checked textually without importing the
    tree).  The attribute fallback needs a prefix of at least two segments:
    otherwise every ``repro.<typo>`` would pass via the top-level package.
    """
    src = Path(root) / "src"
    parts = reference.split(".")
    if _module_source(src.joinpath(*parts)) is not None:
        return True
    if len(parts) <= 2:
        return False
    source = _module_source(src.joinpath(*parts[:-1]))
    return source is not None \
        and parts[-1] in top_level_names(source.read_text(encoding="utf-8"))


def _python_sources(root):
    """The text of every Python source under the flag/keyword trees."""
    for tree in _FLAG_SOURCE_DIRS:
        for source in (Path(root) / tree).rglob("*.py"):
            try:
                yield source.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue


def known_flags(root):
    """Every ``--flag`` literal appearing in project Python sources."""
    flags = set(_EXTERNAL_FLAGS)
    for text in _python_sources(root):
        flags.update(_FLAG_RE.findall(text))
    return flags


def known_identifiers(root):
    """Every identifier-like word appearing in project Python sources."""
    identifiers = set()
    for text in _python_sources(root):
        identifiers.update(_IDENTIFIER_RE.findall(text))
    return identifiers


def figure_names(root):
    """Keys of the FIGURES registry, parsed from the source text."""
    source_path = Path(root) / _FIGURES_SOURCE
    try:
        source = source_path.read_text(encoding="utf-8")
    except OSError:
        return set()
    match = re.search(r"^FIGURES\s*=\s*\{(.*?)^\}", source,
                      re.MULTILINE | re.DOTALL)
    if match is None:
        return set()
    return set(re.findall(r"[\"']([a-z][a-z0-9-]*)[\"']\s*:", match.group(1)))


def stale_references(markdown_path, root=".", flags=None, figures=None,
                     identifiers=None):
    """``(line, kind, reference)`` doc references that no longer match the tree.

    *flags*, *figures* and *identifiers* may be precomputed (via
    :func:`known_flags` / :func:`figure_names` / :func:`known_identifiers`)
    so a multi-file run scans the Python tree once, not once per document.
    """
    markdown_path = Path(markdown_path)
    text = markdown_path.read_text(encoding="utf-8")
    if flags is None:
        flags = known_flags(root)
    if figures is None:
        figures = figure_names(root) | _FIGURE_EXTRAS
    if identifiers is None:
        identifiers = known_identifiers(root)
    stale = []
    for line_number, reference, inline in iter_code_references(text):
        if _TREE_PATH_RE.match(reference.split("::", 1)[0]):
            if not tree_path_exists(reference, root):
                stale.append((line_number, "path", reference))
            continue
        if _MODULE_RE.match(reference):
            if not module_resolves(reference, root):
                stale.append((line_number, "module", reference))
            continue
        for flag in _FLAG_RE.findall(reference):
            if flag not in flags:
                stale.append((line_number, "flag", flag))
        for name in _FIGURE_CMD_RE.findall(reference):
            if name not in figures:
                stale.append((line_number, "figure", name))
        if inline:
            for name in _KEYWORD_RE.findall(reference):
                if name not in identifiers:
                    stale.append((line_number, "keyword", name))
    return stale


# -- doctable markers ---------------------------------------------------------------

#: ``<!-- doctable key=value ... -->`` markers (may span lines).
_DOCTABLE_RE = re.compile(r"<!--\s*doctable\s+(.*?)-->", re.DOTALL)

#: ``key=value`` attributes inside a marker (value quoted when it has spaces).
_DOCTABLE_ATTR_RE = re.compile(r"(\w+)=(\"[^\"]*\"|\S+)")


def _doctable_attrs(body):
    return {key: value.strip('"')
            for key, value in _DOCTABLE_ATTR_RE.findall(body)}


def _normalize_row(line):
    """A table line as comparable text: cells stripped of bold and spaces."""
    cells = [cell.strip().replace("**", "")
             for cell in line.strip().strip("|").split("|")]
    return "|".join(cells)


def _select_records(data, path):
    """Follow a dotted *path* (e.g. ``pool_sweep.rows``) into loaded JSON."""
    for part in path.split("."):
        data = data[part]
    if not isinstance(data, list):
        raise KeyError(path)
    return data


def _render_expected(records, template, group=None, pivot=None):
    """The set of normalized rows the JSON can produce under *template*.

    Plain mode formats each record directly.  Group/pivot mode first groups
    records by the *group* field, then exposes each member's fields as
    ``<pivot-value>__<field>`` (dashes mapped to underscores so the names
    are valid format fields) alongside the shared group field.
    """
    if group is None:
        contexts = records
    else:
        grouped = {}
        for record in records:
            grouped.setdefault(record[group], []).append(record)
        contexts = []
        for value, members in grouped.items():
            context = {group: value}
            for member in members:
                prefix = str(member[pivot]).replace("-", "_")
                for field, field_value in member.items():
                    context[f"{prefix}__{field}"] = field_value
            contexts.append(context)
    return {_normalize_row(template.format_map(context))
            for context in contexts}


def _table_after(lines, start_index):
    """``(line_number, row)`` data rows of the first table at/after *start_index*.

    Skips blank and prose lines, then consumes header + separator + data
    rows.  Returns an empty list when no table starts within a few lines
    (the marker is then dangling — reported by the caller).
    """
    index = start_index
    while index < len(lines) and not lines[index].lstrip().startswith("|"):
        if index - start_index > 5 and lines[index].strip():
            return []  # wandered into prose: no table follows the marker
        index += 1
    index += 2  # header + |---| separator
    rows = []
    while index < len(lines) and lines[index].lstrip().startswith("|"):
        rows.append((index + 1, lines[index]))
        index += 1
    return rows


def stale_tables(markdown_path):
    """``(line, kind, reference)`` failures for every doctable in the file.

    Each marker's table is re-rendered from its JSON artifact; any doc row
    the JSON cannot produce is stale (model changed without regenerating,
    or a hand-edited number).
    """
    markdown_path = Path(markdown_path)
    text = markdown_path.read_text(encoding="utf-8")
    lines = text.splitlines()
    failures = []
    for match in _DOCTABLE_RE.finditer(text):
        marker_line = text[:match.start()].count("\n") + 1
        attrs = _doctable_attrs(match.group(1))
        source = attrs.get("source")
        template = attrs.get("row")
        if not source or not template:
            failures.append((marker_line, "doctable",
                             "marker needs source= and row="))
            continue
        source_path = markdown_path.parent / source
        try:
            data = json.loads(source_path.read_text(encoding="utf-8"))
            records = _select_records(data, attrs.get("select", "rows"))
            expected = _render_expected(records, template,
                                        group=attrs.get("group"),
                                        pivot=attrs.get("pivot"))
        except OSError:
            failures.append((marker_line, "doctable", f"missing {source}"))
            continue
        except (KeyError, IndexError, ValueError) as error:
            failures.append((marker_line, "doctable",
                             f"{source}: {error!r}"))
            continue
        end_line = text[:match.end()].count("\n") + 1
        rows = _table_after(lines, end_line)
        if not rows:
            failures.append((marker_line, "doctable",
                             "no table follows the marker"))
            continue
        for line_number, row in rows:
            if _normalize_row(row) not in expected:
                failures.append((line_number, "table-row",
                                 row.strip()))
    return failures


def default_files(root):
    """README.md plus every Markdown file under docs/."""
    root = Path(root)
    files = []
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    files.extend(sorted((root / "docs").glob("*.md")))
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Check Markdown files for dead links and stale "
                    "code references.")
    parser.add_argument("files", nargs="*", type=Path,
                        help="Markdown files to check "
                             "(default: README.md and docs/*.md)")
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root for the default file set and "
                             "the staleness checks")
    parser.add_argument("--links-only", action="store_true",
                        help="skip the staleness pass (dead links only)")
    args = parser.parse_args(argv)

    files = args.files or default_files(args.root)
    if not args.links_only:
        flags = known_flags(args.root)
        figures = figure_names(args.root) | _FIGURE_EXTRAS
        identifiers = known_identifiers(args.root)
    failures = 0
    for markdown in files:
        for line_number, target in dead_links(markdown):
            print(f"{markdown}:{line_number}: dead link -> {target}")
            failures += 1
        if args.links_only:
            continue
        for line_number, kind, reference in stale_references(
                markdown, root=args.root, flags=flags, figures=figures,
                identifiers=identifiers):
            print(f"{markdown}:{line_number}: stale {kind} -> {reference}")
            failures += 1
        for line_number, kind, reference in stale_tables(markdown):
            print(f"{markdown}:{line_number}: stale {kind} -> {reference}")
            failures += 1
    if failures:
        print(f"{failures} dead link(s) / stale reference(s).", file=sys.stderr)
        return 1
    print(f"checked {len(files)} file(s): all links and code references "
          f"resolve.")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
