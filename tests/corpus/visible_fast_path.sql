-- The section 6.4 inline fast path and subquery memoization. The naive
-- legs run the literal evaluation (a source scan per measure context, a
-- fresh run per subquery evaluation), so every other leg checks these
-- shapes against it: AGGREGATE / AT (VISIBLE) contexts evaluated over
-- their row ids alone; VISIBLE combined with SET, where the call site must
-- keep its group-key terms (CURRENT reads them); VISIBLE through a join
-- that fans out; a composed measure whose formula applies VISIBLE; and
-- correlated subqueries whose keys, NULL included, repeat across rows.
CREATE TABLE t0 (d0 VARCHAR, d1 INTEGER, v0 INTEGER);
CREATE TABLE t1 (d0 VARCHAR, attr INTEGER);
INSERT INTO t0 VALUES ('A', 1, 5), ('A', 2, 7), (NULL, 1, 3), ('B', NULL, 4), ('B', 2, 9), ('A', 1, 5);
INSERT INTO t1 VALUES ('A', 1), ('A', 2), ('B', 3), (NULL, 4);
CREATE VIEW V0 AS SELECT *, SUM(v0) AS MEASURE m0, COUNT(*) AS MEASURE cnt FROM t0;
CREATE VIEW V1 AS SELECT *, m0 AT (VISIBLE) - SUM(v0) AS MEASURE n0 FROM V0;
-- check: differential  (set-current-with-visible)
SELECT d1, m0 AT (SET d1 = CURRENT d1 VISIBLE) AS a, m0 AT (VISIBLE SET d1 = CURRENT d1) AS b, cnt AT (SET d1 = 2 VISIBLE) AS c FROM V0 WHERE v0 > 3 GROUP BY d1;
-- check: differential  (set-with-visible-two-keys)
SELECT d0, d1, m0 AT (VISIBLE SET d1 = 1) AS a, m0 AT (SET d0 = CURRENT d0 VISIBLE) AS b FROM V0 WHERE v0 <> 7 GROUP BY d0, d1;
-- check: differential  (visible-through-fan-out)
SELECT c.attr, AGGREGATE(o.m0) AS a, o.cnt AT (VISIBLE) AS v FROM V0 AS o JOIN t1 AS c ON o.d0 = c.d0 GROUP BY c.attr;
-- check: differential  (rollup-aggregate)
SELECT d0, d1, AGGREGATE(m0) AS a, AGGREGATE(cnt) AS n FROM V0 WHERE v0 > 3 GROUP BY ROLLUP(d0, d1);
-- check: differential  (composed-visible)
SELECT d0, AGGREGATE(n0) AS a, n0 AS b FROM V1 WHERE d1 IS NOT NULL GROUP BY d0;
-- check: differential  (null-key-subqueries)
SELECT o.d0, o.d1, AGGREGATE(o.m0) AS a, (SELECT SUM(b.v0) FROM t0 AS b WHERE b.d0 = o.d0) AS s, (SELECT COUNT(*) FROM t0 AS b WHERE b.d1 = o.d1) AS k FROM V0 AS o GROUP BY o.d0, o.d1;
