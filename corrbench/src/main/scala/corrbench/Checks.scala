package corrbench

import repro.core.{CorrelationSketch, Hashing}

import scala.collection.mutable

/** The output checks. Each one compares the program's output with a result
  * the benchmark works out apart from the program, or with a property the
  * method must have, and returns what it found wrong (empty when right).
  */
object Checks {

  final case class Report(problems: Seq[String], failedPerRound: Int, notes: Seq[String])

  private def close(a: Double, b: Double, tol: Double): Boolean =
    (a.isNaN && b.isNaN) || math.abs(a - b) <= tol * math.max(1.0, math.abs(a))

  // ---------------------------------------------------------------- build

  /** What a column's sketch must hold, worked out by sorting every distinct key. */
  final case class ColumnRef(id: String, rows: Long, distinct: Int, xMin: Double, xMax: Double,
                             /** Kept keys: the min(k, D) smallest by (hu(h), h), sorted by h. */
                             hashes: Array[Int], means: Array[Double],
                             /** Distinct key strings that share one h inside the kept range. */
                             collisions: Seq[(String, String, Int)])

  def columnRef(id: String, keys: Array[String], values: Array[Double], k: Int): ColumnRef = {
    val sum = mutable.HashMap.empty[String, Array[Double]]
    var i = 0
    while (i < keys.length) {
      val s = sum.getOrElseUpdate(keys(i), Array(0.0, 0.0))
      s(0) += values(i); s(1) += 1
      i += 1
    }
    val distinct = sum.keys.toArray.map(s => (s, Hashing.h(s)))
    val ranked = distinct.sortBy { case (s, h) => (Hashing.hu(h), h, s) }
    val kept = ranked.take(k)
    val cut = if (kept.isEmpty) Double.NegativeInfinity else Hashing.hu(kept.last._2)
    val collisions = distinct.groupBy(_._2).toSeq
      .filter { case (h, ss) => ss.length > 1 && Hashing.hu(h) <= cut }
      .map { case (h, ss) => val s = ss.map(_._1).sorted; (s(0), s(1), h) }
    val byHash = kept.sortBy(_._2)
    ColumnRef(id, keys.length.toLong, distinct.length,
      if (values.isEmpty) Double.NaN else values.min, if (values.isEmpty) Double.NaN else values.max,
      byHash.map(_._2), byHash.map { case (s, _) => val t = sum(s); t(0) / t(1) }, collisions)
  }

  /** The sketch holds exactly the reference's keys and means, rows, range and exactness. */
  def sketchMatches(ref: ColumnRef, sk: CorrelationSketch, k: Int): Seq[String] = {
    val p = mutable.ArrayBuffer.empty[String]
    val where = s"column ${ref.id}"
    if (sk.maxSize != k) p += s"$where: maxSize ${sk.maxSize}, expected $k"
    if (!java.util.Arrays.equals(sk.keyHashes, ref.hashes))
      p += s"$where: kept ${sk.keyHashes.length} key hashes, expected ${ref.hashes.length} " +
        s"(${sk.keyHashes.diff(ref.hashes).take(3).mkString(",")} not expected, " +
        s"${ref.hashes.diff(sk.keyHashes).take(3).mkString(",")} missing)"
    else {
      val bad = ref.means.indices.filterNot(i => close(sk.values(i), ref.means(i), 1e-9))
      if (bad.nonEmpty) p += s"$where: ${bad.size} values differ from the key's mean, " +
        s"first h=${ref.hashes(bad.head)}: ${sk.values(bad.head)} vs ${ref.means(bad.head)}"
    }
    if (sk.rows != ref.rows) p += s"$where: rows ${sk.rows}, expected ${ref.rows}"
    if (!close(sk.xMin, ref.xMin, 0) || !close(sk.xMax, ref.xMax, 0))
      p += s"$where: range [${sk.xMin}, ${sk.xMax}], expected [${ref.xMin}, ${ref.xMax}]"
    if (sk.exact != (ref.distinct <= k)) p += s"$where: exact=${sk.exact} with ${ref.distinct} distinct keys"
    p.toSeq
  }

  /** Element-by-element equality of two sketches (the case class's `==` compares array references). */
  def sameSketch(id: String, a: CorrelationSketch, b: CorrelationSketch): Seq[String] = {
    val same = a.maxSize == b.maxSize && java.util.Arrays.equals(a.keyHashes, b.keyHashes) &&
      a.values.length == b.values.length && a.values.indices.forall(i => close(a.values(i), b.values(i), 1e-9)) &&
      close(a.xMin, b.xMin, 0) && close(a.xMax, b.xMax, 0) && a.exact == b.exact && a.rows == b.rows
    if (same) Nil else Seq(s"column $id: Spark-built and locally built sketches differ")
  }

  // ---------------------------------------------------------------- query

  /** Brute-force top-N by key-hash overlap over every corpus sketch, ties by id. */
  def bruteTop(query: Array[Int], corpus: Seq[(String, Array[Int])], topN: Int): Seq[(String, Int)] = {
    val counts = corpus.map { case (_, hs) =>
      var i = 0; var j = 0; var c = 0
      while (i < query.length && j < hs.length) {
        if (query(i) == hs(j)) { c += 1; i += 1; j += 1 }
        else if (query(i) < hs(j)) i += 1 else j += 1
      }
      c
    }
    corpus.indices.filter(counts(_) > 0).map(i => (corpus(i)._1, counts(i)))
      .sortBy { case (id, c) => (-c, id) }.take(topN)
  }

  def hitsMatch(qid: String, got: Seq[(String, Int)], expected: Seq[(String, Int)]): Seq[String] =
    if (got == expected) Nil
    else Seq(s"query $qid: search returned ${got.take(3)}... (${got.size}), brute force ${expected.take(3)}... (${expected.size})")

  /** Pearson over the benchmark's own key-matched join of two sketches: each
    * of b's hashes is looked up in a's (which the sketch keeps sorted).
    */
  def ownPearson(a: CorrelationSketch, b: CorrelationSketch): Double = {
    val xs = new Array[Double](b.size); val ys = new Array[Double](b.size)
    var n = 0
    for (i <- b.keyHashes.indices) {
      val at = java.util.Arrays.binarySearch(a.keyHashes, b.keyHashes(i))
      if (at >= 0) { xs(n) = a.values(at); ys(n) = b.values(i); n += 1 }
    }
    Stats.pearson(xs.take(n), ys.take(n))
  }

  def pearsonMatches(where: String, got: Double, expected: Double): Seq[String] =
    if ((got.isNaN && expected.isNaN) || math.abs(got - expected) <= 1e-9) Nil
    else Seq(s"$where: Pearson $got, own two-pass Pearson $expected")

  def nonIncreasing(where: String, absR: Seq[Double]): Seq[String] =
    absR.sliding(2).collectFirst { case Seq(a, b) if b > a => Seq(s"$where: |r| rises from $a to $b") }
      .getOrElse(Nil)

  // ---------------------------------------------------------------- rank

  def averagePrecision(rel: Seq[Boolean]): Double = {
    val total = rel.count(identity)
    if (total == 0) Double.NaN
    else {
      var hits = 0
      rel.zipWithIndex.map { case (r, i) => if (r) { hits += 1; hits.toDouble / (i + 1) } else 0.0 }.sum / total
    }
  }

  def ndcg(gains: Seq[Double], k: Int): Double = {
    def dcg(g: Seq[Double]) = g.take(k).zipWithIndex.map { case (x, i) => x / (math.log(i + 2) / math.log(2)) }.sum
    val ideal = dcg(gains.sorted(Ordering[Double].reverse))
    if (ideal == 0) Double.NaN else dcg(gains) / ideal
  }

  private def meanDefined(xs: Seq[Double]): Double = { val d = xs.filterNot(_.isNaN); d.sum / d.size }

  /** MAP (r > .75), MAP (r > .50), nDCG@5, nDCG@10 of one ranker over all queries. */
  def table1Scores(lists: Seq[(Map[String, Double], Seq[String])]): Seq[Double] = {
    val per = lists.map { case (truth, ids) =>
      val g = ids.map(truth)
      Seq(averagePrecision(g.map(_ > 0.75)), averagePrecision(g.map(_ > 0.50)), ndcg(g, 5), ndcg(g, 10))
    }
    (0 until 4).map(i => meanDefined(per.map(_(i))))
  }

  val table1Metrics = Seq("MAP(r>.75)", "MAP(r>.50)", "nDCG@5", "nDCG@10")

  /** Each correlation ranker beats `jc` on all four Table 1 metrics. */
  def table1Shape(scores: Map[String, Seq[Double]], correlationRankers: Seq[String]): Seq[String] =
    for {
      r <- correlationRankers
      i <- 0 until 4
      if !(scores(r)(i) > scores("jc")(i))
    } yield f"Table 1 shape: $r ${table1Metrics(i)} ${scores(r)(i)}%.3f does not beat jc ${scores("jc")(i)}%.3f"

  /** The Hoeffding interval holds the full-join Pearson for at least 95 % of candidates. */
  def hoeffdingCoverage(bounds: Seq[(Double, Double, Double)]): Seq[String] = {
    val defined = bounds.filterNot(_._3.isNaN)
    val inside = defined.count { case (lo, hi, r) => lo <= r && r <= hi }
    if (defined.nonEmpty && inside >= 0.95 * defined.size) Nil
    else Seq(s"Hoeffding interval holds the full-join Pearson for $inside of ${defined.size} candidates")
  }

  // ---------------------------------------------------------------- estimate

  def exactAgreement(where: String, sketchEst: Double, fullEst: Double): Seq[String] =
    if (close(sketchEst, fullEst, 1e-9)) Nil else Seq(s"$where: sketch $sketchEst, full join $fullEst")

  /** Estimates lie in [−1, 1]; NaN only where the join has fewer than three rows. */
  def inRange(where: String, est: Double, n: Int): Seq[String] =
    if (est >= -1.0 && est <= 1.0 || est.isNaN && n < 3) Nil else Seq(s"$where: estimate $est outside [-1, 1]")

  def pm1Ordered(where: String, lo: Double, est: Double, hi: Double): Seq[String] =
    if (lo <= est && est <= hi || est.isNaN) Nil else Seq(s"$where: PM1 interval [$lo, $hi] misses its estimate $est")

  /** Pearson's RMSE falls from joins under 16 rows to joins of 128 or more, and ends below 0.15. */
  def rmseShape(obs: Seq[(Int, Double, Double)]): Seq[String] = {
    def rmse(os: Seq[(Int, Double, Double)]) =
      math.sqrt(os.map { case (_, e, t) => (e - t) * (e - t) }.sum / os.size)
    val ok = obs.filterNot(o => o._2.isNaN || o._3.isNaN)
    val small = ok.filter(_._1 < 16); val large = ok.filter(_._1 >= 128)
    if (small.isEmpty || large.isEmpty) Seq("RMSE shape: an empty join-size bucket")
    else if (!(rmse(large) < rmse(small) && rmse(large) < 0.15))
      Seq(f"RMSE shape: join>=128 ${rmse(large)}%.4f, join<16 ${rmse(small)}%.4f")
    else Nil
  }
}
