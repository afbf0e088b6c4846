"""The AST lint engine behind ``scripts/run_lint.py``.

A :class:`LintEngine` walks a :class:`Project` (every ``*.py`` under
``src/``, ``scripts/`` and ``benchmarks/``), parses each file once, and
hands the parsed modules to pluggable :class:`Rule` instances.  Rules
emit :class:`Finding` records (rule id, file, line, message, severity);
the engine then filters them through two escape hatches:

* **disable comments** — a ``# lint: disable=rule-a,rule-b -- reason``
  comment suppresses those rules' findings *on that line*.  The reason
  text after ``--`` is mandatory policy (see ``docs/analysis.md``); the
  engine flags reasonless disables with the ``lint-disable`` pseudo-rule
  so a bare escape hatch is itself a finding.
* **baseline** — a committed JSON file of grandfathered finding keys
  (:meth:`Finding.key`: rule, file, message — line numbers excluded so
  unrelated edits don't invalidate it).  ``run_lint.py --baseline``
  rewrites it; CI fails on any finding not in it.

Rules come from the ``lint_rule`` registry family
(:mod:`repro.spec.registry`), so downstream code can register extra
project rules the same way it registers objectives or pool backends.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..spec import registry as spec_registry

__all__ = [
    "Finding",
    "ModuleSource",
    "Project",
    "Rule",
    "LintEngine",
    "default_rules",
    "load_baseline",
    "run_lint",
    "DEFAULT_TARGETS",
    "BASELINE_FILE",
]

#: directories a default lint run walks, relative to the repo root
DEFAULT_TARGETS = ("src", "scripts", "benchmarks")

#: the committed grandfathered-findings file, relative to the repo root
BASELINE_FILE = "LINT_BASELINE.json"

#: ``lint: disable=rule-a,rule-b`` comments, optional ``-- reason`` tail
_DISABLE = re.compile(
    r"#\s*lint:\s*disable=(?P<rules>[\w,-]+)(?P<reason>\s*--\s*\S.*)?"
)


@dataclass(frozen=True)
class Finding:
    """One structured lint finding."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    message: str
    severity: str = "error"

    def key(self) -> str:
        """Baseline identity: stable across pure line-number drift."""
        return f"{self.rule}::{self.path}::{self.message}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: [{self.rule}] "
            f"{self.severity}: {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }


class ModuleSource:
    """One parsed python file plus its lint-disable comment map."""

    def __init__(self, root: Path, path: Path) -> None:
        self.abspath = path
        self.path = path.relative_to(root).as_posix()
        self.text = path.read_text()
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(path))
        #: line number -> set of rule names disabled on that line
        self.disabled: dict[int, set[str]] = {}
        #: lines whose disable comment is missing the ``-- reason`` tail
        self.reasonless: list[int] = []
        for lineno, line in enumerate(self.lines, start=1):
            match = _DISABLE.search(line)
            if match is None:
                continue
            rules = {r.strip() for r in match.group("rules").split(",")}
            self.disabled[lineno] = {r for r in rules if r}
            if not match.group("reason"):
                self.reasonless.append(lineno)

    @property
    def dotted(self) -> str:
        """Dotted module name (``repro.parallel.pool``) when under src/."""
        parts = Path(self.path).with_suffix("").parts
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def finding(
        self, rule: str, node_or_line, message: str, severity: str = "error"
    ) -> Finding:
        line = getattr(node_or_line, "lineno", node_or_line)
        return Finding(rule, self.path, int(line), message, severity)


class Project:
    """The lint engine's view of the repo: parsed modules + the root."""

    def __init__(self, root: Path, targets: Iterable[str] = DEFAULT_TARGETS):
        self.root = Path(root)
        self.modules: list[ModuleSource] = []
        self.parse_errors: list[Finding] = []
        for target in targets:
            base = self.root / target
            if not base.exists():
                continue
            for path in sorted(base.rglob("*.py")):
                try:
                    self.modules.append(ModuleSource(self.root, path))
                except SyntaxError as exc:
                    rel = path.relative_to(self.root).as_posix()
                    self.parse_errors.append(Finding(
                        "parse-error", rel, exc.lineno or 0, str(exc.msg)
                    ))

    def module(self, dotted: str) -> ModuleSource | None:
        """Look up a parsed module by dotted name (``repro.spec.wire``)."""
        for mod in self.modules:
            if mod.dotted == dotted:
                return mod
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`name` (the id used in findings, disable
    comments and the registry) and override :meth:`check_module` (called
    once per file) and/or :meth:`check_project` (called once with the
    whole project, for cross-file rules).
    """

    name = "abstract-rule"
    description = ""

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())


def default_rules() -> list[Rule]:
    """Instantiate every rule registered in the ``lint_rule`` family."""
    family = spec_registry.registry("lint_rule")
    return [family.resolve(name)() for name in family.names()]


def load_baseline(path: Path) -> set[str]:
    """Read the committed baseline; missing file means empty baseline."""
    if not path.exists():
        return set()
    data = json.loads(path.read_text())
    return set(data.get("findings", []))


def save_baseline(path: Path, findings: Iterable[Finding]) -> int:
    keys = sorted({f.key() for f in findings})
    path.write_text(json.dumps(
        {
            "comment": (
                "Grandfathered lint findings (see docs/analysis.md). "
                "Regenerate with: python scripts/run_lint.py --baseline"
            ),
            "findings": keys,
        },
        indent=2,
    ) + "\n")
    return len(keys)


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: list[Finding]  # actionable (not disabled, not baselined)
    baselined: list[Finding]
    disabled: list[Finding]
    files: int = 0
    rules: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "baselined": len(self.baselined),
            "disabled": len(self.disabled),
            "files": self.files,
            "rules": self.rules,
        }


class LintEngine:
    """Run a rule set over a :class:`Project` and filter the findings."""

    def __init__(self, rules: Iterable[Rule] | None = None) -> None:
        self.rules = list(rules) if rules is not None else default_rules()

    def run(self, project: Project, baseline: set[str] | None = None):
        baseline = baseline or set()
        raw: list[Finding] = list(project.parse_errors)
        for rule in self.rules:
            for module in project.modules:
                raw.extend(rule.check_module(module))
            raw.extend(rule.check_project(project))
        # a disable comment without a reason is itself a finding
        for module in project.modules:
            for lineno in module.reasonless:
                raw.append(module.finding(
                    "lint-disable", lineno,
                    "disable comment needs a '-- reason' tail",
                ))
        by_path = {m.path: m for m in project.modules}
        report = LintReport(
            findings=[], baselined=[], disabled=[],
            files=len(project.modules),
            rules=[rule.name for rule in self.rules],
        )
        for finding in sorted(raw, key=lambda f: (f.path, f.line, f.rule)):
            module = by_path.get(finding.path)
            disabled_here = (
                module is not None
                and finding.rule in module.disabled.get(finding.line, ())
            )
            if disabled_here:
                report.disabled.append(finding)
            elif finding.key() in baseline:
                report.baselined.append(finding)
            else:
                report.findings.append(finding)
        return report


def run_lint(
    root: Path,
    targets: Iterable[str] = DEFAULT_TARGETS,
    rules: Iterable[Rule] | None = None,
    baseline_path: Path | None = None,
) -> LintReport:
    """One-call front end: build the project, run the rules, filter."""
    root = Path(root)
    if baseline_path is None:
        baseline_path = root / BASELINE_FILE
    project = Project(root, targets)
    engine = LintEngine(rules)
    return engine.run(project, load_baseline(baseline_path))
