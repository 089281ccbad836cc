package corrbench

import repro.core.CorrelationSketch
import repro.data.{FullJoin, TableGen}
import repro.index.SketchIndex
import repro.stats.{ConfidenceBounds, Correlations}

/** The benchmark's own tests: every output check passes on the program's
  * real output and fails once that output is corrupted, so no check is
  * vacuous. Run with `python3 corrbench/run.py --self-test`.
  */
object SelfTest {

  private val tests = Seq.newBuilder[(String, () => Unit)]
  private def test(name: String)(body: => Unit): Unit = tests += (name -> (() => body))

  private def passes(p: Seq[String]): Unit = require(p.isEmpty, s"check failed on correct output: $p")
  private def fails(p: Seq[String]): Unit = require(p.nonEmpty, "check passed a corrupted output")

  private def copy(s: CorrelationSketch, keyHashes: Array[Int] = null, values: Array[Double] = null,
                   rows: Long = -1, xMin: Double = Double.NaN, exact: Option[Boolean] = None): CorrelationSketch =
    s.copy(keyHashes = Option(keyHashes).getOrElse(s.keyHashes.clone()),
      values = Option(values).getOrElse(s.values.clone()),
      rows = if (rows >= 0) rows else s.rows, xMin = if (xMin.isNaN) s.xMin else xMin,
      exact = exact.getOrElse(s.exact))

  private def drop[A: scala.reflect.ClassTag](a: Array[A], i: Int): Array[A] = a.take(i) ++ a.drop(i + 1)

  // ---------------------------------------------------------------- build

  private val k = 64
  private val layout = BuildLayout(5L).copy(distinct = Array(700, 40), rows = Array(900, 50))
  private def column(j: Int) = {
    val keys = Array.tabulate(layout.rows(j))(r => layout.key(j, r))
    (keys, Array.tabulate(layout.rows(j))(r => layout.value(j, r)))
  }
  private val (keys, values) = column(0)
  private val ref = Checks.columnRef("c0", keys, values, k)
  private val sk = CorrelationSketch.fromColumns(keys, values, k)

  test("build: the sketch matches the reference") { passes(Checks.sketchMatches(ref, sk, k)) }
  test("build: a dropped sketch key fails") {
    fails(Checks.sketchMatches(ref, copy(sk, drop(sk.keyHashes, 3), drop(sk.values, 3)), k))
  }
  test("build: a key outside the bottom-k fails") {
    val outside = keys.map(repro.core.Hashing.h).find(h => !ref.hashes.contains(h)).get
    val hs = sk.keyHashes.clone(); hs(0) = outside
    val order = hs.indices.sortBy(hs(_))
    fails(Checks.sketchMatches(ref, copy(sk, order.map(hs).toArray, order.map(sk.values).toArray), k))
  }
  test("build: a perturbed value fails") {
    val vs = sk.values.clone(); vs(5) += 1e-6
    fails(Checks.sketchMatches(ref, copy(sk, values = vs), k))
  }
  test("build: wrong rows, range or exactness fail") {
    fails(Checks.sketchMatches(ref, copy(sk, rows = sk.rows - 1), k))
    fails(Checks.sketchMatches(ref, copy(sk, xMin = sk.xMin - 1), k))
    fails(Checks.sketchMatches(ref, copy(sk, exact = Some(!sk.exact)), k))
  }
  test("build: Spark-vs-local comparison is element by element") {
    passes(Checks.sameSketch("c0", sk, copy(sk)))
    val vs = sk.values.clone(); vs(0) += 1e-6
    fails(Checks.sameSketch("c0", sk, copy(sk, values = vs)))
    fails(Checks.sameSketch("c0", sk, copy(sk, drop(sk.keyHashes, 0), drop(sk.values, 0))))
  }
  test("build: an h collision inside the sketch is found") {
    require(ref.collisions.isEmpty, "no collision expected in the seeded column")
    val (pk, pv) = column(1)
    require(Checks.columnRef("probe", pk, pv, k).collisions.size == 1, "the probe's collision was not found")
  }

  // ---------------------------------------------------------------- query

  private val tables = Inputs.nycStratified(2, 30, 100, 400, 0.3, 9L)
  private val sketches = tables.map(t => t.id -> CorrelationSketch.fromColumns(t.keys, t.values, 128)).toMap
  private val (qids, cids) = tables.map(_.id).sorted.zipWithIndex.partition(_._2 % 2 == 0)
  private val index = new SketchIndex(cids.map(c => c._1 -> sketches(c._1)).toMap)
  private val corpus = cids.map(c => c._1 -> sketches(c._1).keyHashes)
  private val q = sketches(qids.head._1)
  private val hits = index.search(q, 10).map(h => (h.id, h.overlap))

  test("query: search matches brute force") { passes(Checks.hitsMatch("q", hits, Checks.bruteTop(q.keyHashes, corpus, 10))) }
  test("query: swapped or dropped hits fail") {
    val expected = Checks.bruteTop(q.keyHashes, corpus, 10)
    fails(Checks.hitsMatch("q", hits.updated(0, hits(1)).updated(1, hits(0)), expected))
    fails(Checks.hitsMatch("q", hits.dropRight(1), expected))
  }
  test("query: Pearson matches the own join, a perturbed one fails") {
    val c = sketches(hits.head._1)
    val sj = CorrelationSketch.join(q, c)
    val r = Correlations.pearson(sj.xs, sj.ys)
    passes(Checks.pearsonMatches("q", r, Checks.ownPearson(q, c)))
    fails(Checks.pearsonMatches("q", r + 1e-7, Checks.ownPearson(q, c)))
  }
  test("query: a rise in |r| fails") {
    passes(Checks.nonIncreasing("q", Seq(0.9, 0.5, 0.5, 0.1)))
    fails(Checks.nonIncreasing("q", Seq(0.9, 0.1, 0.5)))
  }

  // ---------------------------------------------------------------- rank

  test("rank: Table 1 shape holds, and fails when jc's ranking is swapped in") {
    val truth = (0 until 12).map(i => s"c$i" -> i / 12.0).toMap
    val best = truth.toSeq.sortBy(-_._2).map(_._1)
    val worst = best.reverse
    val rankers = RankWorkload.CorrelationRankers
    def scores(corr: Seq[String], jc: Seq[String]) =
      (rankers.map(_ -> Checks.table1Scores(Seq((truth, corr)))) :+ ("jc" -> Checks.table1Scores(Seq((truth, jc))))).toMap
    passes(Checks.table1Shape(scores(best, worst), rankers))
    fails(Checks.table1Shape(scores(worst, best), rankers))
  }
  test("rank: Hoeffding coverage holds, and fails for a shifted interval") {
    val bounds = (0 until 40).map { i =>
      val p = TableGen.sbnPair(s"h$i", 300, 0.5, 0.8, i.toLong)
      val (x, y) = FullJoin.joinedColumns(p.x, p.y)
      val h = ConfidenceBounds.hoeffding(x, y, math.min(x.min, y.min), math.max(x.max, y.max))
      (h.rhoLow, h.rhoHigh, Correlations.pearson(x, y))
    }
    passes(Checks.hoeffdingCoverage(bounds))
    fails(Checks.hoeffdingCoverage(bounds.map { case (lo, hi, r) => (r + 0.01, hi + 1, r) }))
  }

  // ---------------------------------------------------------------- estimate

  test("estimate: exact agreement to 1e-9, a perturbed estimate fails") {
    passes(Checks.exactAgreement("p", 0.3, 0.3 + 1e-12))
    fails(Checks.exactAgreement("p", 0.3, 0.3 + 1e-7))
  }
  test("estimate: estimates outside [-1, 1] fail") {
    passes(Checks.inRange("p", -1.0, 10) ++ Checks.inRange("p", Double.NaN, 2))
    fails(Checks.inRange("p", 1.0 + 1e-12, 10))
    fails(Checks.inRange("p", Double.NaN, 10))
  }
  test("estimate: a PM1 interval that misses its estimate fails") {
    val p = TableGen.sbnPair("b", 200, 0.4, 1.0, 3L)
    val b = Correlations.pm1Bootstrap(p.x.values, p.y.values)
    passes(Checks.pm1Ordered("p", b.ciLow, b.estimate, b.ciHigh))
    fails(Checks.pm1Ordered("p", b.estimate + 0.01, b.estimate, b.ciHigh))
  }
  test("estimate: RMSE shape holds, and fails when the large joins are the noisy ones") {
    val small = (0 until 10).map(i => (8, 0.5 + (if (i % 2 == 0) 0.3 else -0.3), 0.5))
    val large = (0 until 10).map(i => (500, 0.5 + (if (i % 2 == 0) 0.05 else -0.05), 0.5))
    passes(Checks.rmseShape(small ++ large))
    fails(Checks.rmseShape(small ++ large.map { case (n, e, t) => (n, 2 * e - t + 0.3, t) }))
  }

  def main(args: Array[String]): Unit = {
    val failures = tests.result().flatMap { case (name, body) =>
      val error = try { body(); None } catch { case e: Throwable => Some(e.toString) }
      println(s"${if (error.isEmpty) "PASS" else "FAIL"} $name${error.map(" — " + _).getOrElse("")}")
      error
    }
    println(s"${tests.result().size - failures.size} passed, ${failures.size} failed")
    sys.exit(if (failures.isEmpty) 0 else 1)
  }
}
