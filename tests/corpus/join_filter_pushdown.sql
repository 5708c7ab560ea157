-- Filter pushdown below joins (plan/rewrite.h). The naive legs run the
-- literal plan, so every other leg checks the rewrite on these shapes:
-- a LEFT-join anti-join whose IS NULL test must stay above the join, an
-- AT (ALL) / SET context that must keep reading the unfiltered source
-- under a pushed filter, and a conjunct that would divide by zero on the one
-- fact row the join drops ('Z', 0), which must not become an error.
CREATE TABLE t0 (d0 VARCHAR, v0 INTEGER);
CREATE TABLE t1 (d0 VARCHAR, attr INTEGER);
INSERT INTO t0 VALUES ('A', 10), ('A', 50), ('B', 5), ('Z', 0), (NULL, 7);
INSERT INTO t1 VALUES ('A', 1), ('B', 2), ('C', 3);
CREATE VIEW V0 AS SELECT *, SUM(v0) AS MEASURE m0, COUNT(*) AS MEASURE cnt FROM t0;
-- check: differential  (anti-join)
SELECT o.d0, AGGREGATE(o.m0) AS x FROM V0 AS o LEFT JOIN t1 AS c ON o.d0 = c.d0 WHERE c.attr IS NULL GROUP BY o.d0 ORDER BY o.d0;
-- check: differential  (anti-join-with-preserved-side-conjunct)
SELECT o.d0, o.v0, o.m0 AT (ALL) AS total FROM V0 AS o LEFT JOIN t1 AS c ON o.d0 = c.d0 WHERE c.d0 IS NULL AND o.v0 > 1;
-- check: differential  (at-all-over-filtered-join)
SELECT o.d0, o.m0 AS x, o.m0 AT (ALL) AS total, o.m0 AT (SET o.d0 = 'B') AS b FROM V0 AS o JOIN t1 AS c ON o.d0 = c.d0 WHERE o.d0 = 'A' AND c.attr >= 1 GROUP BY o.d0;
-- check: differential  (visible-over-filtered-join)
SELECT c.attr, AGGREGATE(o.cnt) AS n, o.m0 AT (ALL o.d0) AS all_d0 FROM V0 AS o JOIN t1 AS c ON o.d0 = c.d0 WHERE o.v0 < 40 OR c.attr = 2 GROUP BY c.attr ORDER BY c.attr;
-- check: differential  (raising-conjunct-stays-above)
SELECT o.d0, AGGREGATE(o.m0) AS x FROM V0 AS o JOIN t1 AS c ON o.d0 = c.d0 WHERE 100 / o.v0 > 1 GROUP BY o.d0 ORDER BY o.d0;
-- check: differential  (raising-conjunct-keeps-its-neighbours-above)
SELECT o.d0, AGGREGATE(o.m0) AS x FROM V0 AS o JOIN t1 AS c ON o.d0 = c.d0 WHERE o.d0 <> 'B' AND 100 / o.v0 > 1 AND c.attr > 0 GROUP BY o.d0;
