#!/usr/bin/env python
"""Static documentation builder for this repository.

Neither mkdocs nor sphinx is installable in the reproduction container, so
the docs pipeline is self-contained: this script renders the Markdown
sources under ``docs/`` plus an API reference generated from the package's
docstrings into a static HTML site, using only the standard library (plus
pygments for code highlighting when available).  The layout — ``mkdocs.yml``
nav manifest at the repo root, plain Markdown pages under ``docs/`` — is
deliberately mkdocs-shaped so the sources migrate mechanically if a real
mkdocs ever becomes available.

Usage::

    python docs/build_docs.py [--strict] [--out DIR]

``--strict`` is the CI mode: every warning is an error.  Checks performed in
every mode (warnings; fatal under ``--strict``):

* Markdown structure: unclosed code fences, nav entries without a source
  file, source files missing from the nav.
* Link check: every internal ``href`` must resolve to an emitted page (and,
  for ``page.html#fragment`` links, to a heading anchor on that page).

Docstring coverage is not checked here: the ``docstring-coverage`` rule of
``repro.tools.lint`` covers all of ``src/repro`` in CI's ``lint`` job, and a
symbol that slips through renders as "Undocumented.".

Exit status 0 on success, 1 when strict mode found problems.
"""

from __future__ import annotations

import argparse
import html
import importlib
import inspect
import re
import sys
from pathlib import Path

try:
    from pygments import highlight
    from pygments.formatters import HtmlFormatter
    from pygments.lexers import TextLexer, get_lexer_by_name
except ImportError:  # pragma: no cover - pygments is optional
    highlight = None

DOCS_DIR = Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent
DEFAULT_OUT = DOCS_DIR / "_site"

#: One API page per entry: (slug, page title, module names).
API_SECTIONS = [
    ("repro", "repro (top level)", ["repro"]),
    ("circuits", "repro.circuits", [
        "repro.circuits", "repro.circuits.circuit", "repro.circuits.gates",
        "repro.circuits.fusion", "repro.circuits.library",
    ]),
    ("compression", "repro.compression", [
        "repro.compression", "repro.compression.interface",
        "repro.compression.lossless", "repro.compression.sz",
        "repro.compression.sz_complex", "repro.compression.xor_bitplane",
        "repro.compression.bitplane", "repro.compression.zfp_like",
        "repro.compression.fpzip_like", "repro.compression.reshuffle",
        "repro.compression.huffman", "repro.compression.bitpack",
        "repro.compression.quantization", "repro.compression.metrics",
        "repro.compression.engines",
    ]),
    ("distributed", "repro.distributed", [
        "repro.distributed", "repro.distributed.partition",
        "repro.distributed.process_comm",
        "repro.distributed.exchange", "repro.distributed.ranked",
    ]),
    ("core", "repro.core", [
        "repro.core", "repro.core.simulator", "repro.core.config",
        "repro.core.compressed_state", "repro.core.blocks",
        "repro.core.kernel", "repro.core.procpool",
        "repro.core.cache",
        "repro.core.adaptive", "repro.core.fidelity", "repro.core.report",
        "repro.core.checkpoint",
    ]),
    ("resilience", "repro.resilience", [
        "repro.errors", "repro.resilience", "repro.resilience.faults",
    ]),
    ("backends", "repro.backends", [
        "repro.backends", "repro.backends.base", "repro.backends.runner",
        "repro.backends.result", "repro.backends.observables",
        "repro.backends.compressed", "repro.backends.dense",
        "repro.backends.parallel",
    ]),
    ("serve", "repro.serve", [
        "repro.serve", "repro.serve.service", "repro.serve.queue",
        "repro.serve.cache", "repro.serve.events",
    ]),
    ("statevector", "repro.statevector", [
        "repro.statevector", "repro.statevector.dense",
        "repro.statevector.ops", "repro.statevector.measurement",
    ]),
    ("applications", "repro.applications", [
        "repro.applications", "repro.applications.grover",
        "repro.applications.hadamard", "repro.applications.qaoa",
        "repro.applications.qft", "repro.applications.random_circuit",
    ]),
    ("analysis", "repro.analysis", [
        "repro.analysis", "repro.analysis.datasets", "repro.analysis.memory",
        "repro.analysis.report", "repro.analysis.spikiness",
    ]),
    ("tools", "repro.tools.lint", [
        "repro.tools", "repro.tools.lint", "repro.tools.lint.engine",
        "repro.tools.lint.config", "repro.tools.lint.cli",
        "repro.tools.lint.rules",
    ]),
]

STYLE = """
:root { --accent: #1f6f8b; --border: #d7dde3; --code-bg: #f6f8fa; }
* { box-sizing: border-box; }
body { margin: 0; font: 16px/1.6 -apple-system, "Segoe UI", Roboto, sans-serif;
       color: #1c2730; display: flex; min-height: 100vh; }
nav.sidebar { width: 17rem; flex-shrink: 0; border-right: 1px solid var(--border);
              padding: 1.2rem 1rem; background: #fafbfc; }
nav.sidebar h1 { font-size: 1rem; margin: 0 0 .8rem; }
nav.sidebar a { display: block; color: #33424f; text-decoration: none;
                padding: .15rem .4rem; border-radius: 4px; }
nav.sidebar a.current { background: var(--accent); color: #fff; }
nav.sidebar a:hover:not(.current) { background: #edf1f4; }
nav.sidebar .sub { margin-left: .9rem; font-size: .93em; }
main { padding: 1.5rem 2.5rem 4rem; max-width: 54rem; min-width: 0; }
h1, h2, h3, h4 { line-height: 1.25; }
h2 { border-bottom: 1px solid var(--border); padding-bottom: .25rem; }
a { color: var(--accent); }
code { background: var(--code-bg); padding: .08em .3em; border-radius: 3px;
       font: .92em/1.5 ui-monospace, "SFMono-Regular", Menlo, monospace; }
pre { background: var(--code-bg); padding: .8rem 1rem; border-radius: 6px;
      overflow-x: auto; border: 1px solid var(--border); }
pre code { background: none; padding: 0; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid var(--border); padding: .35rem .7rem; text-align: left; }
th { background: #f1f4f7; }
blockquote { border-left: 3px solid var(--accent); margin: 1rem 0;
             padding: .1rem 1rem; color: #4a5a66; background: #f8fafb; }
.api-symbol { border: 1px solid var(--border); border-radius: 6px;
              margin: 1.2rem 0; padding: .2rem 1rem .6rem; }
.api-symbol h4 { margin: .6rem 0 .2rem; font-family: ui-monospace, monospace; }
.api-kind { color: #697886; font-size: .82em; text-transform: uppercase;
            letter-spacing: .06em; }
.docstring { white-space: pre-wrap; font-size: .95em; color: #2b3944;
             margin: .4rem 0 0; }
.missing { color: #b3261e; font-weight: 600; }
"""

_INLINE_CODE = re.compile(r"`([^`]+)`")
_BOLD = re.compile(r"\*\*([^*]+)\*\*")
_ITALIC = re.compile(r"(?<!\*)\*([^*]+)\*(?!\*)")
_LINK = re.compile(r"\[([^\]]+)\]\(([^)\s]+)\)")


class DocsError(Exception):
    """A fatal documentation build problem."""


class Reporter:
    """Collects warnings; under ``--strict`` any warning fails the build."""

    def __init__(self, strict: bool) -> None:
        self.strict = strict
        self.warnings: list[str] = []

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        print(f"WARNING: {message}", file=sys.stderr)

    @property
    def failed(self) -> bool:
        return self.strict and bool(self.warnings)


def slugify(text: str) -> str:
    """GitHub-style heading slug: lowercase, hyphens, alphanumerics only."""

    text = re.sub(r"`|\*", "", text.strip().lower())
    text = re.sub(r"[^a-z0-9 _-]", "", text)
    return re.sub(r"[\s_]+", "-", text).strip("-")


def render_inline(text: str) -> str:
    """Inline Markdown (code, bold, italic, links) on an escaped line."""

    placeholders: list[str] = []

    def stash(fragment: str) -> str:
        placeholders.append(fragment)
        return f"\x00{len(placeholders) - 1}\x00"

    # Code spans first: their contents are literal.
    text = _INLINE_CODE.sub(
        lambda m: stash(f"<code>{html.escape(m.group(1))}</code>"), text
    )
    text = _LINK.sub(
        lambda m: stash(
            f'<a href="{html.escape(m.group(2), quote=True)}">'
            f"{html.escape(m.group(1))}</a>"
        ),
        text,
    )
    text = html.escape(text, quote=False)
    text = _BOLD.sub(r"<strong>\1</strong>", text)
    text = _ITALIC.sub(r"<em>\1</em>", text)
    return re.sub(
        r"\x00(\d+)\x00", lambda m: placeholders[int(m.group(1))], text
    )


def highlight_block(code: str, language: str) -> str:
    """Fenced code block to HTML (pygments when available, escaped <pre> else)."""

    if highlight is not None:
        try:
            lexer = get_lexer_by_name(language) if language else TextLexer()
        except Exception:
            lexer = TextLexer()
        return highlight(code, lexer, HtmlFormatter(nowrap=False))
    return f"<pre><code>{html.escape(code)}</code></pre>"


def render_markdown(source: str, page: str, reporter: Reporter) -> tuple[str, set[str], str | None]:
    """Render a Markdown page; returns ``(html, anchors, title)``."""

    lines = source.splitlines()
    out: list[str] = []
    anchors: set[str] = set()
    title: str | None = None
    paragraph: list[str] = []
    list_stack: list[str] = []  # open list tags, innermost last
    in_quote = False

    def close_paragraph() -> None:
        if paragraph:
            out.append(f"<p>{render_inline(' '.join(paragraph))}</p>")
            paragraph.clear()

    def close_lists(depth: int = 0) -> None:
        while len(list_stack) > depth:
            out.append(f"</{list_stack.pop()}>")

    def close_quote() -> None:
        nonlocal in_quote
        if in_quote:
            out.append("</blockquote>")
            in_quote = False

    index = 0
    while index < len(lines):
        line = lines[index]
        stripped = line.strip()

        # Fenced code blocks.
        if stripped.startswith("```"):
            close_paragraph(); close_lists(); close_quote()
            language = stripped[3:].strip()
            code_lines = []
            index += 1
            while index < len(lines) and not lines[index].strip().startswith("```"):
                code_lines.append(lines[index])
                index += 1
            if index >= len(lines):
                reporter.warn(f"{page}: unclosed code fence")
                break
            out.append(highlight_block("\n".join(code_lines) + "\n", language))
            index += 1
            continue

        # Blank line: paragraph/list/quote boundary.
        if not stripped:
            close_paragraph(); close_lists(); close_quote()
            index += 1
            continue

        # Headings.
        heading = re.match(r"(#{1,4})\s+(.*)", stripped)
        if heading:
            close_paragraph(); close_lists(); close_quote()
            level = len(heading.group(1))
            text = heading.group(2).strip()
            if level == 1 and title is None:
                title = re.sub(r"`", "", text)
            anchor = slugify(text)
            if anchor in anchors:
                reporter.warn(f"{page}: duplicate heading anchor #{anchor}")
            anchors.add(anchor)
            out.append(
                f'<h{level} id="{anchor}">{render_inline(text)}</h{level}>'
            )
            index += 1
            continue

        # Horizontal rule.
        if re.fullmatch(r"(-{3,}|\*{3,})", stripped):
            close_paragraph(); close_lists(); close_quote()
            out.append("<hr/>")
            index += 1
            continue

        # Tables: a header row followed by a |---| separator.
        if stripped.startswith("|") and index + 1 < len(lines) and re.fullmatch(
            r"\|?[\s:|-]+\|?", lines[index + 1].strip()
        ) and "-" in lines[index + 1]:
            close_paragraph(); close_lists(); close_quote()
            def cells(row: str) -> list[str]:
                return [cell.strip() for cell in row.strip().strip("|").split("|")]
            header = cells(stripped)
            out.append("<table><thead><tr>")
            out.extend(f"<th>{render_inline(cell)}</th>" for cell in header)
            out.append("</tr></thead><tbody>")
            index += 2
            while index < len(lines) and lines[index].strip().startswith("|"):
                out.append("<tr>")
                out.extend(
                    f"<td>{render_inline(cell)}</td>"
                    for cell in cells(lines[index])
                )
                out.append("</tr>")
                index += 1
            out.append("</tbody></table>")
            continue

        # Blockquote (single level).
        if stripped.startswith(">"):
            close_paragraph(); close_lists()
            if not in_quote:
                out.append("<blockquote>")
                in_quote = True
            out.append(f"<p>{render_inline(stripped.lstrip('> ').strip())}</p>")
            index += 1
            continue

        # Lists (unordered/ordered, one nesting level by indentation).
        item = re.match(r"(\s*)([-*]|\d+\.)\s+(.*)", line)
        if item:
            close_paragraph(); close_quote()
            depth = 1 if len(item.group(1)) >= 2 else 0
            tag = "ol" if item.group(2)[0].isdigit() else "ul"
            while len(list_stack) > depth + 1:
                out.append(f"</{list_stack.pop()}>")
            if len(list_stack) == depth:
                out.append(f"<{tag}>")
                list_stack.append(tag)
            out.append(f"<li>{render_inline(item.group(3))}</li>")
            index += 1
            continue

        # Continuation of a paragraph (or of a list item's text).
        if list_stack:
            # Indented continuation line of the previous <li>.
            out[-1] = out[-1][: -len("</li>")] + " " + render_inline(stripped) + "</li>"
        else:
            paragraph.append(stripped)
        index += 1

    close_paragraph(); close_lists(); close_quote()
    return "\n".join(out), anchors, title


# ---------------------------------------------------------------------------
# API reference generation
# ---------------------------------------------------------------------------


def _public_members(module) -> list[tuple[str, object]]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in dir(module) if not name.startswith("_")]
    members = []
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        # Only document symbols defined by this module (re-exports are
        # documented where they live).
        if getattr(obj, "__module__", module.__name__) != module.__name__:
            continue
        members.append((name, obj))
    return members


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _docstring_html(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    if not doc.strip():
        return '<p class="missing">Undocumented.</p>'
    return f'<div class="docstring">{html.escape(doc)}</div>'


def _class_html(name: str, cls: type, module_name: str) -> str:
    parts = [
        '<div class="api-symbol">',
        f'<span class="api-kind">class</span>',
        f'<h4 id="{slugify(module_name + "-" + name)}">{html.escape(name)}'
        f"{html.escape(_signature(cls))}</h4>",
        _docstring_html(cls),
    ]
    for member_name, member in sorted(vars(cls).items()):
        if member_name.startswith("_"):
            continue
        if isinstance(member, property):
            kind, target = "property", member.fget or member
            signature = ""
        elif isinstance(member, (staticmethod, classmethod)):
            kind, target = "method", member.__func__
            signature = _signature(target)
        elif inspect.isfunction(member):
            kind, target = "method", member
            signature = _signature(member)
        else:
            continue
        parts.append(
            f'<p><span class="api-kind">{kind}</span> '
            f"<code>{html.escape(member_name)}{html.escape(signature)}</code></p>"
        )
        parts.append(_docstring_html(target))
    parts.append("</div>")
    return "\n".join(parts)


def _function_html(name: str, func, module_name: str) -> str:
    return "\n".join(
        [
            '<div class="api-symbol">',
            '<span class="api-kind">function</span>',
            f'<h4 id="{slugify(module_name + "-" + name)}">{html.escape(name)}'
            f"{html.escape(_signature(func))}</h4>",
            _docstring_html(func),
            "</div>",
        ]
    )


def render_api_section(title: str, module_names: list[str], reporter: Reporter) -> str:
    chunks = [f"<h1>{html.escape(title)}</h1>"]
    for module_name in module_names:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            reporter.warn(f"API reference: cannot import {module_name}: {exc}")
            continue
        chunks.append(f'<h2 id="{slugify(module_name)}">{html.escape(module_name)}</h2>')
        doc = module.__doc__ or ""
        if doc.strip():
            chunks.append(f'<div class="docstring">{html.escape(doc.strip())}</div>')
        for name, obj in _public_members(module):
            if inspect.isclass(obj):
                chunks.append(_class_html(name, obj, module_name))
            elif inspect.isfunction(obj):
                chunks.append(_function_html(name, obj, module_name))
    return "\n".join(chunks)


# ---------------------------------------------------------------------------
# Site assembly
# ---------------------------------------------------------------------------


def load_nav() -> tuple[str, list[tuple[str, str]]]:
    """Parse ``mkdocs.yml``: returns ``(site_name, [(title, source), ...])``.

    ``source`` is a Markdown filename under ``docs/`` or the special value
    ``api/`` for the generated API reference.
    """

    import yaml

    config = yaml.safe_load((REPO_ROOT / "mkdocs.yml").read_text())
    nav = []
    for entry in config["nav"]:
        ((entry_title, source),) = entry.items()
        nav.append((entry_title, source))
    return config.get("site_name", "documentation"), nav


def page_shell(
    site_name: str,
    nav_links: list[tuple[str, str, bool]],
    title: str,
    body: str,
    root_prefix: str,
) -> str:
    nav_html = "".join(
        f'<a class="{"current" if current else ""}" '
        f'href="{root_prefix}{href}">{html.escape(text)}</a>'
        for text, href, current in nav_links
    )
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\"/>"
        f"<title>{html.escape(title)} — {html.escape(site_name)}</title>"
        '<meta name="viewport" content="width=device-width, initial-scale=1"/>'
        f'<link rel="stylesheet" href="{root_prefix}style.css"/></head><body>'
        f'<nav class="sidebar"><h1>{html.escape(site_name)}</h1>{nav_html}</nav>'
        f"<main>{body}</main></body></html>"
    )


def check_links(
    pages: dict[str, tuple[str, set[str]]], reporter: Reporter
) -> None:
    """Every internal href must resolve to an emitted page (and anchor)."""

    href_pattern = re.compile(r'href="([^"]+)"')
    for page_name, (body, _anchors) in pages.items():
        for href in href_pattern.findall(body):
            if href.startswith(("http://", "https://", "mailto:")):
                continue
            if href.endswith("style.css"):
                continue
            target, _, fragment = href.partition("#")
            if not target:
                if fragment and fragment not in pages[page_name][1]:
                    reporter.warn(
                        f"{page_name}: broken same-page anchor #{fragment}"
                    )
                continue
            # Normalise relative to the page's directory.
            base = Path(page_name).parent
            resolved = (base / target).as_posix()
            while resolved.startswith("../"):  # pragma: no cover - defensive
                resolved = resolved[3:]
            resolved = resolved.replace("../", "")
            if resolved not in pages:
                reporter.warn(f"{page_name}: broken internal link {href!r}")
                continue
            if fragment and fragment not in pages[resolved][1]:
                reporter.warn(
                    f"{page_name}: broken anchor {href!r} "
                    f"(no #{fragment} on {resolved})"
                )


def build(out_dir: Path, strict: bool) -> int:
    reporter = Reporter(strict)
    site_name, nav = load_nav()

    # Source sanity: nav entries exist; every docs/*.md page is in the nav.
    markdown_sources = {path.name for path in DOCS_DIR.glob("*.md")}
    nav_sources = {source for _, source in nav if source != "api/"}
    for source in nav_sources - markdown_sources:
        reporter.warn(f"mkdocs.yml: nav references missing page {source}")
    for source in markdown_sources - nav_sources:
        reporter.warn(f"{source}: not listed in the mkdocs.yml nav")

    # Collect anchors first so cross-page anchor links can be validated.
    pages: dict[str, tuple[str, set[str]]] = {}
    titles: dict[str, str] = {}
    for entry_title, source in nav:
        if source == "api/":
            continue
        path = DOCS_DIR / source
        if not path.exists():
            continue
        body, anchors, page_title = render_markdown(
            path.read_text(), source, reporter
        )
        out_name = source[:-3] + ".html"
        pages[out_name] = (body, anchors)
        titles[out_name] = page_title or entry_title

    # API reference pages.
    api_index_items = []
    for slug, section_title, module_names in API_SECTIONS:
        body = render_api_section(section_title, module_names, reporter)
        anchors = {slugify(name) for name in module_names}
        anchors |= set(re.findall(r'id="([^"]+)"', body))
        pages[f"api/{slug}.html"] = (body, anchors)
        titles[f"api/{slug}.html"] = section_title
        api_index_items.append(
            f'<li><a href="{slug}.html">{html.escape(section_title)}</a></li>'
        )
    api_index_body = (
        "<h1>API reference</h1>"
        "<p>Generated from the package docstrings at build time; the "
        "<code>docstring-coverage</code> lint rule keeps every public "
        "<code>repro.*</code> symbol documented.</p>"
        f"<ul>{''.join(api_index_items)}</ul>"
    )
    pages["api/index.html"] = (api_index_body, set())
    titles["api/index.html"] = "API reference"

    check_links(pages, reporter)

    if reporter.failed:
        print(
            f"strict build failed with {len(reporter.warnings)} problem(s)",
            file=sys.stderr,
        )
        return 1

    # Emit.
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "api").mkdir(exist_ok=True)
    style = STYLE
    if highlight is not None:
        style += HtmlFormatter().get_style_defs(".highlight")
    (out_dir / "style.css").write_text(style)
    nav_links_spec = [
        (entry_title, source[:-3] + ".html" if source != "api/" else "api/index.html")
        for entry_title, source in nav
    ]
    for page_name, (body, _anchors) in pages.items():
        root_prefix = "../" if page_name.startswith("api/") else ""
        nav_links = [
            (text, href, href == page_name) for text, href in nav_links_spec
        ]
        document = page_shell(
            site_name, nav_links, titles.get(page_name, site_name), body,
            root_prefix,
        )
        target = out_dir / page_name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(document)
    print(
        f"built {len(pages)} pages -> {out_dir} "
        f"({len(reporter.warnings)} warning(s))"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--strict", action="store_true", help="treat every warning as an error"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output directory"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    return build(args.out, args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
