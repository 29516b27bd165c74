"""Re-derive the bundled reference tables and report every check.

Each of the 71 rows (8 hypersurfaces, 26 complete intersections, 2
Pfaffian families, 35 codimension-4 ambients) is rebuilt from its basket
alone; the series, the exact degree, A c2/12, the recovered ambient
weights and the numerator's signed palindromy are all compared.

Two codimension-4 rows hide a generator/relation pair in equal degree.
Their series are identical to those of a smaller presentation, so weight
recovery fails there by design; every other check on them passes.
"""

from collections import Counter

from fano2.tables import load_table_entries, verify_table_entry

entries = load_table_entries()
passed = Counter()
total = Counter()

for entry in entries:
    report = verify_table_entry(entry)
    total[entry.table_id] += 1
    passed[entry.table_id] += report.ok
    if not report.ok:
        print(f"known limitation: {entry.label} fails {report.failed_checks()}")

print()
for table in sorted(total):
    print(f"table {table}: {passed[table]}/{total[table]} rows verify in full")
