package corrbench

import org.apache.spark.sql.SparkSession
import repro.core.{CorrelationSketch, SketchJoin}
import repro.data.{FullJoin, KVTable, TableGen}
import repro.stats.{Correlations, Ranks}

import scala.collection.mutable

/** Table 2 extended to all five estimators: SBN pairs whose sketch joins
  * run from 4 rows up to k = 1024, log-evenly, each timed for the sketch
  * join plus one estimator. Even pairs share all of their at most 1024 keys,
  * so both sketches are exact and the join size is fixed; odd pairs have
  * 4096 keys in X, a seeded subsample in Y, and truncated sketches.
  */
final class EstimateWorkload(seed: Long) extends Workload {
  import EstimateWorkload._

  private var pairs: Array[(KVTable, KVTable)] = _
  private var sketches: Array[(CorrelationSketch, CorrelationSketch)] = _
  // out(pair)(estimator) = (estimate, join size); PM1's interval separately.
  private var out: Array[Array[(Double, Int)]] = _
  private var pm1Ci: Array[(Double, Double)] = _
  private var collisions = 0

  val needsSpark = false
  def opsPerRound: Int = Pairs * Estimators.size
  def workPerRound: Double = Pairs

  def inputs(): Unit = {
    pairs = Array.tabulate(Pairs) { i =>
      val m = math.round(4 * math.pow(256, i / (Pairs - 1.0))).toInt // target join size, 4..1024
      val (n, c) = if (i % 2 == 0) (m, 1.0) else (4 * K, m.toDouble / K)
      val r = Stats.unit(Stats.mix(seed, i, 1)) * 2 - 1
      val p = TableGen.sbnPair(s"e$i", n, r, c, Stats.mix(seed, i, 2))
      (p.x, p.y)
    }
    out = Array.fill(Pairs)(new Array(Estimators.size))
    pm1Ci = new Array(Pairs)
  }

  def setup(spark: Option[SparkSession], t: Trace): Unit =
    sketches = pairs.map { case (x, y) =>
      (CorrelationSketch.fromColumns(x.keys, x.values, K), CorrelationSketch.fromColumns(y.keys, y.values, K))
    }

  def round(spark: Option[SparkSession], t: Trace, lat: Latencies): Unit = {
    var i = 0
    while (i < Pairs) {
      t.op = i
      val (a, b) = sketches(i)
      if (t.enabled) tracedPair(t, i, a, b, lat)
      else {
        var e = 0
        while (e < Estimators.size) {
          val t0 = System.nanoTime()
          val sj = CorrelationSketch.join(a, b)
          val est = estimate(e, sj, i)
          lat.add(Estimators(e), (System.nanoTime() - t0).toDouble)
          out(i)(e) = (est, sj.n)
          e += 1
        }
      }
      i += 1
    }
  }

  private def estimate(e: Int, sj: SketchJoin, i: Int): Double = e match {
    case 0 => Correlations.pearson(sj.xs, sj.ys)
    case 1 => Correlations.spearman(sj.xs, sj.ys)
    case 2 => Correlations.rin(sj.xs, sj.ys)
    case 3 => Correlations.qnCorrelation(sj.xs, sj.ys)
    case 4 =>
      val b = Correlations.pm1Bootstrap(sj.xs, sj.ys)
      pm1Ci(i) = (b.ciLow, b.ciHigh)
      b.estimate
  }

  /** One join per pair, each estimator timed alone, plus the per-column
    * transforms Spearman, RIN and Qn are built from.
    */
  private def tracedPair(t: Trace, i: Int, a: CorrelationSketch, b: CorrelationSketch, lat: Latencies): Unit = {
    val j0 = System.nanoTime()
    val sj = t.span("core.join") { CorrelationSketch.join(a, b) }
    val joinNs = System.nanoTime() - j0
    var e = 0
    while (e < Estimators.size) {
      val t0 = System.nanoTime()
      val est = t.span(s"stats.${Estimators(e)}") { estimate(e, sj, i) }
      lat.add(Estimators(e), (joinNs + System.nanoTime() - t0).toDouble)
      out(i)(e) = (est, sj.n)
      e += 1
    }
    for (col <- Seq(sj.xs, sj.ys)) {
      t.span("stats.ranks") { Ranks.averageRanks(col) }
      t.span("stats.rankit") { Ranks.rankit(col) }
      t.span("stats.qn_scale") { Correlations.qnScale(col) }
    }
  }

  /** Geometric mean over the five estimators of each one's per-pair latency,
    * so that each estimator weighs the same whatever its cost.
    */
  override def opLatencyUs(lat: Latencies): (Double, Double) = (
    Stats.geomean(Estimators.map(e => Stats.quantile(lat(e), 0.5))) / 1e3,
    Stats.geomean(Estimators.map(e => Stats.quantile(lat(e), 0.9))) / 1e3)

  def check(): Checks.Report = {
    val problems = mutable.ArrayBuffer.empty[String]
    val rmseObs = mutable.ArrayBuffer.empty[(Int, Double, Double)]
    collisions = 0
    for (i <- 0 until Pairs) {
      val (x, y) = pairs(i)
      val (a, b) = sketches(i)
      val (fx, fy) = FullJoin.joinedColumns(x, y)
      val n = out(i)(0)._2
      for (e <- Estimators.indices)
        problems ++= Checks.inRange(s"pair $i ${Estimators(e)} (join $n)", out(i)(e)._1, n)
      problems ++= Checks.pm1Ordered(s"pair $i (join $n)", pm1Ci(i)._1, out(i)(4)._1, pm1Ci(i)._2)
      rmseObs += ((n, out(i)(0)._1, Stats.pearson(fx, fy)))
      // Exact sketches hold every key, so their join is the full join, unless
      // two keys share an h; those pairs are counted, not compared.
      val whole = a.size == x.keys.distinct.length && b.size == y.keys.distinct.length
      if (a.exact && b.exact && !whole) collisions += 1
      if (a.exact && b.exact && whole) {
        val full = Seq(Correlations.pearson(fx, fy), Correlations.spearman(fx, fy),
          Correlations.rin(fx, fy), Correlations.qnCorrelation(fx, fy))
        for (e <- full.indices)
          problems ++= Checks.exactAgreement(s"pair $i ${Estimators(e)} on exact sketches", out(i)(e)._1, full(e))
      }
    }
    problems ++= Checks.rmseShape(rmseObs.toSeq)
    Checks.Report(problems.toSeq, 0,
      if (collisions > 0) Seq(s"$collisions exact pairs hold an h collision and were not compared") else Nil)
  }

  def digest(): Long = (out.toSeq.map(_.toSeq), pm1Ci.toSeq).hashCode.toLong

  def named(lat: Latencies, roundNs: Array[Double]): Seq[(String, Double, String)] =
    Estimators.map(e => (s"corr_us.$e", Stats.median(lat(e)) / 1e3, "us"))

  def layers(t: Trace): Seq[(String, Double)] = Seq(
    "core.truncated_sketches" -> sketches.count(p => !p._1.exact || !p._2.exact).toDouble,
    "core.join_n" -> Stats.median(out.map(_(0)._2.toDouble)),
    "core.h_collisions" -> collisions.toDouble,
  )

  def profile(): Seq[(String, String)] = {
    val n = out.map(_(0)._2.toDouble).toSeq
    Seq(
      "pairs" -> Pairs.toString,
      "share of pairs with both sketches exact" -> f"${sketches.count(p => p._1.exact && p._2.exact).toDouble / Pairs}%.3f",
      "sketch-join sizes" -> (Inputs.spread(n) + f" mean=${n.sum / n.size}%.0f max=${n.max}%.0f"),
    )
  }
}

object EstimateWorkload {
  val K = 1024
  val Pairs = 64
  val Estimators: Seq[String] = Seq("pearson", "spearman", "rin", "qn", "pm1")
}
