-- Shrunk from generator seed 103. Duplicate source rows at row grain: the
-- native VISIBLE set is a row-id set that distinguishes duplicates no
-- column predicate can tell apart, so the expansion leg declines this
-- shape (counted as a skip) while the six native legs must still
-- agree — m0 AT (VISIBLE) is 1 per output row, bare m0 counts both
-- duplicates.
CREATE TABLE t0 (d1 INTEGER);
INSERT INTO t0 VALUES (0), (0);
CREATE VIEW V0 AS SELECT *, COUNT(*) AS MEASURE m0 FROM t0;
-- check: differential  (row-grain-visible)
SELECT m0 AT (VISIBLE) AS x0, m0 AS x1 FROM V0;
-- check: differential  (grouped-visible-still-expands)
SELECT d1, m0 AT (VISIBLE) AS x0, m0 AS x1 FROM V0 GROUP BY d1;
