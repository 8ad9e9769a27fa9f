#!/usr/bin/env python3
"""sl_lint: project-specific invariants the C++ compiler cannot check.

Rules (each suppressible per line/function with `sl-lint: allow(<rule>)`):

  nodiscard          Status / Result<T> class definitions must carry
                     [[nodiscard]] (class-level, so every Status- or
                     Result-returning API inherits warn-on-ignore).
  failpoint-registry SL_FAILPOINT("...") call sites and failpoint_site()
                     overrides, the kSites registry in failpoint.cc, and
                     the ARCHITECTURE.md site table must describe the same
                     site set (all three pairwise).
  flag-docs          Every `sparkline.*` flag key compared in
                     src/api/session.cc must have a row in README.md's
                     flag table, and vice versa (case-insensitive — SetConf
                     lower-cases keys; docs use camelCase).
  kernel-deadline    Every kernel function in src/skyline/*.cc whose loops
                     perform dominance tests (CompareRows / matrix.Compare /
                     CompareKeySpans* / the block primitive CompareKeyLanes*
                     / CountTest) must poll DeadlineChecker / CheckInterrupt
                     so queries stay cancellable mid-scan.
  metric-names       Literal instrument names passed to GetCounter /
                     GetGauge / GetHistogram must match the Prometheus
                     metric-name grammar and the `sparkline_` prefix
                     MetricsText() exposes.

Usage:
  tools/sl_lint.py [--root DIR]     lint the tree (exit 1 on findings)
  tools/sl_lint.py --selftest       run the rules against the known-bad
                                    fixtures in tests/lint_fixtures/
"""

import argparse
import os
import re
import sys

RULES = (
    "nodiscard",
    "failpoint-registry",
    "flag-docs",
    "kernel-deadline",
    "metric-names",
)

ALLOW_RE = re.compile(r"sl-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _source_files(root, subdir="src", exts=(".cc", ".h")):
    base = os.path.join(root, subdir)
    out = []
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if name.endswith(exts):
                out.append(os.path.join(dirpath, name))
    return out


def _allowed(rule, lines, idx):
    """True when line idx (0-based) or the one above carries a suppression."""
    for i in (idx, idx - 1):
        if 0 <= i < len(lines):
            m = ALLOW_RE.search(lines[i])
            if m and m.group(1) == rule:
                return True
    return False


def _rel(root, path):
    return os.path.relpath(path, root)


# --- rule: nodiscard ---------------------------------------------------------

CLASS_DEF_RE = re.compile(r"^\s*(?:template\s*<[^>]*>\s*)?class\s+"
                          r"(\[\[nodiscard\]\]\s+)?(Status|Result)\b[^;]*$")


def check_nodiscard(root):
    findings = []
    for path in _source_files(root):
        lines = _read(path).splitlines()
        for i, line in enumerate(lines):
            m = CLASS_DEF_RE.match(line)
            if m is None:
                continue
            # A definition opens a brace on this or a following line; a bare
            # `class Status;` forward declaration is filtered by [^;] above.
            if m.group(1) is None and not _allowed("nodiscard", lines, i):
                findings.append(Finding(
                    "nodiscard", _rel(root, path), i + 1,
                    "class %s must be declared [[nodiscard]] — a dropped "
                    "%s silently swallows the error" %
                    (m.group(2), m.group(2))))
    return findings


# --- rule: failpoint-registry ------------------------------------------------

SL_FAILPOINT_RE = re.compile(r'SL_FAILPOINT\("([^"]+)"\)')
FAILPOINT_SITE_RE = re.compile(
    r'failpoint_site\(\)\s*const(?:\s+override)?\s*\{\s*return\s+"([^"]+)"')
KSITES_RE = re.compile(r"kSites\[\]\s*=\s*\{(.*?)\}", re.S)
DOC_TABLE_RE = re.compile(
    r"<!--\s*failpoint-site-table:begin\s*-->(.*?)"
    r"<!--\s*failpoint-site-table:end\s*-->", re.S)
DOC_SITE_RE = re.compile(r"^\|\s*`([^`]+)`", re.M)


def check_failpoint_registry(root):
    findings = []
    code_sites = {}  # site -> (path, line)
    for path in _source_files(root):
        if path.endswith(os.path.join("common", "failpoint.h")):
            continue  # the macro definition itself
        lines = _read(path).splitlines()
        for i, line in enumerate(lines):
            for pat in (SL_FAILPOINT_RE, FAILPOINT_SITE_RE):
                m = pat.search(line)
                if m and not _allowed("failpoint-registry", lines, i):
                    code_sites.setdefault(m.group(1),
                                          (_rel(root, path), i + 1))

    reg_path = os.path.join(root, "src", "common", "failpoint.cc")
    registry = None
    if os.path.exists(reg_path):
        m = KSITES_RE.search(_read(reg_path))
        if m:
            registry = set(re.findall(r'"([^"]+)"', m.group(1)))

    doc_path = os.path.join(root, "docs", "ARCHITECTURE.md")
    doc_sites = None
    if os.path.exists(doc_path):
        m = DOC_TABLE_RE.search(_read(doc_path))
        if m:
            doc_sites = set(DOC_SITE_RE.findall(m.group(1)))
            doc_sites.discard("site")  # header row

    if registry is not None:
        for site, (path, line) in sorted(code_sites.items()):
            if site not in registry:
                findings.append(Finding(
                    "failpoint-registry", path, line,
                    "failpoint site '%s' is not in the kSites registry "
                    "(failpoint.cc) — Arm() would reject it and the chaos "
                    "sweep would never exercise it" % site))
        for site in sorted(registry - set(code_sites)):
            findings.append(Finding(
                "failpoint-registry", _rel(root, reg_path), 1,
                "registered failpoint site '%s' has no SL_FAILPOINT / "
                "failpoint_site() call site — dead registry entry" % site))
    if registry is not None and doc_sites is not None:
        for site in sorted(registry - doc_sites):
            findings.append(Finding(
                "failpoint-registry", _rel(root, doc_path), 1,
                "failpoint site '%s' is registered but missing from the "
                "ARCHITECTURE.md site table" % site))
        for site in sorted(doc_sites - registry):
            findings.append(Finding(
                "failpoint-registry", _rel(root, doc_path), 1,
                "ARCHITECTURE.md documents failpoint site '%s' which is "
                "not in the kSites registry" % site))
    return findings


# --- rule: flag-docs ---------------------------------------------------------

FLAG_READ_RE = re.compile(r'k\s*==\s*"(sparkline\.[^"]+)"')
FLAG_DOC_RE = re.compile(r"^\|\s*`(sparkline\.[^`]+)`", re.M)


def check_flag_docs(root):
    findings = []
    session = os.path.join(root, "src", "api", "session.cc")
    readme = os.path.join(root, "README.md")
    if not (os.path.exists(session) and os.path.exists(readme)):
        return findings
    lines = _read(session).splitlines()
    read_flags = {}  # lower-cased key -> (line, as-written)
    for i, line in enumerate(lines):
        m = FLAG_READ_RE.search(line)
        if m and not _allowed("flag-docs", lines, i):
            read_flags.setdefault(m.group(1).lower(), (i + 1, m.group(1)))
    doc_flags = {f.lower(): f for f in FLAG_DOC_RE.findall(_read(readme))}

    for key, (line, spelled) in sorted(read_flags.items()):
        if key not in doc_flags:
            findings.append(Finding(
                "flag-docs", _rel(root, session), line,
                "flag '%s' is read here but has no row in README.md's "
                "configuration-flag table" % spelled))
    for key in sorted(set(doc_flags) - set(read_flags)):
        findings.append(Finding(
            "flag-docs", _rel(root, readme), 1,
            "README.md documents flag '%s' which session.cc never reads "
            "(stale doc or typo in the key)" % doc_flags[key]))
    return findings


# --- rule: kernel-deadline ---------------------------------------------------

LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
# CompareKey\w* covers the per-pair CompareKeySpans* and the block
# primitive CompareKeyLanes* (with its one-row form, CompareKeyRow).
DOM_TEST_RE = re.compile(
    r"\bCompareRows\s*\(|\.Compare\s*\(|\bCompareKey\w*\s*\(|"
    r"\bCountTest\s*\(")
DEADLINE_RE = re.compile(r"DeadlineChecker|deadline\.Check|CheckInterrupt")
FUNC_START_RE = re.compile(r"^[A-Za-z_].*\(")


def _functions(text):
    """Yields (start_line_0based, body) for column-0 function definitions —
    the tree's style keeps namespace contents unindented, so a function
    starts at column 0 and its closing brace is a lone '}' at column 0."""
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if start is None:
            if (FUNC_START_RE.match(line) and "namespace" not in line
                    and not line.startswith(("#", "//"))):
                start = i
        elif line == "}":
            yield start, "\n".join(lines[start:i + 1])
            start = None


def check_kernel_deadline(root):
    findings = []
    base = os.path.join(root, "src", "skyline")
    if not os.path.isdir(base):
        return findings
    for name in sorted(os.listdir(base)):
        if not name.endswith(".cc"):
            continue
        path = os.path.join(base, name)
        for start, body in _functions(_read(path)):
            # Skip the signature: CompareRows's own definition is not a
            # dominance-testing loop.
            _, _, rest = body.partition("\n")
            if not (LOOP_RE.search(rest) and DOM_TEST_RE.search(rest)):
                continue
            if DEADLINE_RE.search(rest):
                continue
            if ALLOW_RE.search(rest) and \
                    "allow(kernel-deadline)" in rest:
                continue
            findings.append(Finding(
                "kernel-deadline", _rel(root, path), start + 1,
                "kernel loop performs dominance tests without polling "
                "DeadlineChecker/CheckInterrupt — timeouts and Cancel() "
                "cannot interrupt it"))
    return findings


# --- rule: metric-names ------------------------------------------------------

METRIC_NAME_RE = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\(\s*"([^"]*)"', re.S)
PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def check_metric_names(root):
    findings = []
    for path in _source_files(root):
        if path.endswith((os.path.join("common", "metrics.h"),
                          os.path.join("common", "metrics.cc"))):
            continue  # the registry's own declarations
        text = _read(path)
        lines = text.splitlines()
        for m in METRIC_NAME_RE.finditer(text):
            line_idx = text.count("\n", 0, m.start())
            if _allowed("metric-names", lines, line_idx):
                continue
            name = m.group(1)
            if not PROM_NAME_RE.match(name):
                findings.append(Finding(
                    "metric-names", _rel(root, path), line_idx + 1,
                    "metric name '%s' violates the Prometheus name grammar "
                    "([a-zA-Z_:][a-zA-Z0-9_:]*) — TextExposition() would "
                    "emit an unscrapable series" % name))
            elif not name.startswith("sparkline_"):
                findings.append(Finding(
                    "metric-names", _rel(root, path), line_idx + 1,
                    "metric name '%s' lacks the project's 'sparkline_' "
                    "prefix" % name))
    return findings


# --- driver ------------------------------------------------------------------

CHECKS = {
    "nodiscard": check_nodiscard,
    "failpoint-registry": check_failpoint_registry,
    "flag-docs": check_flag_docs,
    "kernel-deadline": check_kernel_deadline,
    "metric-names": check_metric_names,
}


def run_lint(root):
    findings = []
    for rule in RULES:
        findings.extend(CHECKS[rule](root))
    return findings


def run_selftest(root):
    """Every fixture directory is a miniature repo; expect.txt lists
    `<rule> <min_findings>` lines (or the single word `none`). A fixture
    failing its expectation means the rule went vacuous — the lint could no
    longer catch the regression it exists for."""
    fixtures = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print("selftest: no fixtures at %s" % fixtures, file=sys.stderr)
        return 1
    failures = 0
    cases = 0
    for case in sorted(os.listdir(fixtures)):
        case_dir = os.path.join(fixtures, case)
        expect_path = os.path.join(case_dir, "expect.txt")
        if not os.path.isdir(case_dir) or not os.path.exists(expect_path):
            continue
        cases += 1
        findings = run_lint(case_dir)
        by_rule = {}
        for f in findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        case_failures = 0
        for spec in _read(expect_path).split("\n"):
            spec = spec.strip()
            if not spec or spec.startswith("#"):
                continue
            if spec == "none":
                if findings:
                    case_failures += 1
                    print("FAIL %s: expected no findings, got:" % case)
                    for f in findings:
                        print("  %s" % f)
                continue
            rule, _, count = spec.partition(" ")
            want = int(count or "1")
            got = by_rule.get(rule, 0)
            if got < want:
                case_failures += 1
                print("FAIL %s: expected >=%d %s finding(s), got %d"
                      % (case, want, rule, got))
        failures += case_failures
        if not case_failures:
            print("ok   %s" % case)
    print("selftest: %d fixture(s), %d failure(s)" % (cases, failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: the lint script's parent)")
    parser.add_argument("--selftest", action="store_true",
                        help="prove each rule is non-vacuous via fixtures")
    args = parser.parse_args()
    root = os.path.abspath(args.root or
                           os.path.join(os.path.dirname(__file__), os.pardir))
    if args.selftest:
        sys.exit(run_selftest(root))
    findings = run_lint(root)
    for f in findings:
        print(f)
    if findings:
        print("sl_lint: %d finding(s)" % len(findings), file=sys.stderr)
        sys.exit(1)
    print("sl_lint: clean")


if __name__ == "__main__":
    main()
