#!/usr/bin/env python3
"""Wire-format drift check: every JSON field the serializers emit must be
documented in docs/SCHEMA.md.

Scans the serialization sources (src/driver, tools/vifc) for JsonWriter
member/key calls with literal names, collects the emitted field set, and
fails when any field is missing from the backtick-quoted names in
docs/SCHEMA.md. Also cross-checks that the schema version string in
driver/Serialize.h is the one SCHEMA.md documents.

Run from the repo root (CI does:  python3 tools/schema_check.py).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_MD = ROOT / "docs" / "SCHEMA.md"
SERIALIZE_H = ROOT / "src" / "driver" / "Serialize.h"

# Every file that may hand field names to JsonWriter. Keep in sync with
# where JSON is produced; the point of the check is that this list stays
# short (one serialization module plus its driver-layer callers).
SOURCES = sorted(
    list((ROOT / "src" / "driver").glob("*.cpp"))
    + list((ROOT / "src" / "driver").glob("*.h"))
    + [ROOT / "tools" / "vifc" / "main.cpp"]
)

FIELD_RE = re.compile(r'\b(?:member|key)\(\s*"([A-Za-z0-9_]+)"')
VERSION_RE = re.compile(r'SchemaVersion\[\]\s*=\s*"([^"]+)"')

# Binary frames: every section tag an encoder emits must appear in
# SCHEMA.md's section tables, same drift rule as for JSON fields. Both
# encoders frame through support/BinaryIO.h's ByteWriter::section, so the
# tags are the literal first arguments of `<writer>.section("XXXX", ...)`
# calls — in driver/V1b.cpp for the v1b response format and in
# driver/ArtifactStore.cpp for the on-disk artifact store. (The readers'
# `R.section(Body)` calls take no literal and are not matched.)
SECTION_SOURCES = [
    ROOT / "src" / "driver" / "V1b.cpp",
    ROOT / "src" / "driver" / "ArtifactStore.cpp",
]
SECTION_RE = re.compile(r'\bsection\(\s*"([A-Z0-9]{4})"')
ARTIFACT_VERSION_RE = re.compile(r"ArtifactStoreVersion\s*=\s*(\d+)")


def main() -> int:
    if not SCHEMA_MD.exists():
        print(f"schema_check: missing {SCHEMA_MD}", file=sys.stderr)
        return 1

    emitted: dict[str, list[str]] = {}
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for field in FIELD_RE.findall(text):
            emitted.setdefault(field, []).append(
                str(path.relative_to(ROOT)))

    if not emitted:
        print("schema_check: found no emitted fields — scan broken?",
              file=sys.stderr)
        return 1

    schema_text = SCHEMA_MD.read_text(encoding="utf-8")
    documented = set(re.findall(r"`([A-Za-z0-9_.]+)`", schema_text))
    # `a.b.c` paths in the doc document their leaf fields too.
    for name in list(documented):
        documented.update(name.split("."))

    missing = {f: src for f, src in emitted.items() if f not in documented}
    if missing:
        print("schema_check: fields emitted but not documented in "
              "docs/SCHEMA.md:", file=sys.stderr)
        for field in sorted(missing):
            print(f"  `{field}`  (emitted from "
                  f"{', '.join(sorted(set(missing[field])))})",
                  file=sys.stderr)
        return 1

    tags: set[str] = set()
    for path in SECTION_SOURCES:
        found = set(SECTION_RE.findall(path.read_text(encoding="utf-8")))
        if not found:
            print(f"schema_check: found no section tags in "
                  f"{path.relative_to(ROOT)} — scan broken?",
                  file=sys.stderr)
            return 1
        tags |= found
    undocumented_tags = {t for t in tags if t not in documented}
    if undocumented_tags:
        print("schema_check: binary sections emitted but not documented "
              "in docs/SCHEMA.md:", file=sys.stderr)
        for tag in sorted(undocumented_tags):
            print(f"  `{tag}`", file=sys.stderr)
        return 1

    store_h = (ROOT / "src" / "driver" / "ArtifactStore.h").read_text(
        encoding="utf-8")
    store_version = ARTIFACT_VERSION_RE.search(store_h)
    if not store_version:
        print("schema_check: cannot find ArtifactStoreVersion in "
              "src/driver/ArtifactStore.h", file=sys.stderr)
        return 1
    store_pin = re.compile(
        rf"artifact store.*\bversion\b.*\b{store_version.group(1)}\b",
        re.IGNORECASE)
    if not store_pin.search(schema_text):
        print(f"schema_check: docs/SCHEMA.md never pins artifact store "
              f"version {store_version.group(1)}", file=sys.stderr)
        return 1

    version = VERSION_RE.search(SERIALIZE_H.read_text(encoding="utf-8"))
    if not version:
        print("schema_check: cannot find SchemaVersion in "
              "src/driver/Serialize.h", file=sys.stderr)
        return 1
    if f"`{version.group(1)}`" not in schema_text:
        print(f"schema_check: docs/SCHEMA.md never names the emitted "
              f"schema version `{version.group(1)}`", file=sys.stderr)
        return 1

    print(f"schema_check: {len(emitted)} emitted fields and {len(tags)} "
          f"binary sections all documented; schema version "
          f"{version.group(1)} and artifact store version "
          f"{store_version.group(1)} consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
