package corrbench

import org.apache.spark.sql.SparkSession
import repro.core.CorrelationSketch
import repro.data.KVTable
import repro.rank.{CandidateEstimates, Ranker, Scoring}
import repro.stats.{ConfidenceBounds, Correlations}

import scala.collection.mutable

/** The sketch side of Table 1: for every query, estimate every truly
  * joinable candidate with `CandidateEstimates`, then rank the list under
  * all seven rankers. The collection is the Table-1 one (12 groups of 24
  * pairs, domains 60..3000 keys, keep rates down to 5 %) with the group
  * domains spread evenly rather than drawn. The sketches are built with
  * `fromColumns` in set-up, without Spark.
  */
final class RankWorkload(seed: Long) extends Workload {
  import RankWorkload._

  private final case class Cand(id: String, jc: Double, truth: Double)

  private var tables: Seq[KVTable] = Nil
  private var queries: Array[(String, Array[Cand])] = _
  private var sketches: Map[String, CorrelationSketch] = Map.empty
  private var ests: Array[Seq[CandidateEstimates]] = _
  private var rankings: Array[Seq[Seq[String]]] = _
  private val joinSizes = mutable.ArrayBuffer.empty[Double]

  val needsSpark = false
  def opsPerRound: Int = queries.length
  def workPerRound: Double = queries.map(_._2.length).sum

  def inputs(): Unit = {
    tables = Inputs.nycStratified(12, 24, 60, 3000, 0.05, seed)
    // Ground truth: candidates share at least three keys with the query;
    // relevance is |Pearson| of the full aggregated join.
    val means = tables.map(t => t.id -> Inputs.means(t)).toMap
    val byKey = mutable.HashMap.empty[String, mutable.ArrayBuffer[String]]
    tables.foreach(t => means(t.id).keys.foreach(k => byKey.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += t.id))
    queries = tables.map { q =>
      val mq = means(q.id)
      val overlap = mutable.HashMap.empty[String, Int]
      mq.keys.foreach(k => byKey(k).foreach(id => if (id != q.id) overlap(id) = overlap.getOrElse(id, 0) + 1))
      val cands = overlap.toSeq.filter(_._2 >= MinOverlap).map(_._1).sorted.map { id =>
        val mc = means(id)
        val common = mq.keysIterator.filter(mc.contains).toArray
        val r = Stats.pearson(common.map(mq), common.map(mc))
        Cand(id, common.length.toDouble / mq.size, r)
      }
      q.id -> cands.toArray
    }.filter(_._2.nonEmpty).toArray
    ests = new Array(queries.length)
    rankings = new Array(queries.length)
  }

  def setup(spark: Option[SparkSession], t: Trace): Unit = sketches = Inputs.localSketches(tables, K)

  def round(spark: Option[SparkSession], t: Trace, lat: Latencies): Unit = {
    var qi = 0
    while (qi < queries.length) {
      t.op = qi
      val (qid, cands) = queries(qi)
      val q = sketches(qid)
      val t0 = System.nanoTime()
      val es = cands.toSeq.map { c =>
        t.span("rank.estimates") {
          CandidateEstimates(c.id, q, sketches(c.id), jcExact = c.jc, seed = candidateSeed(qid, c.id))
        }
      }
      val rs = Ranker.all.map { r =>
        t.span(s"rank.score.${key(r)}") { Scoring.rank(es, r, querySeed(qid)).map(_._1) }
      }
      lat.add("op", (System.nanoTime() - t0).toDouble)
      if (t.enabled) cands.foreach(c => layerCalls(t, qid, q, c))
      ests(qi) = es
      rankings(qi) = rs
      qi += 1
    }
  }

  /** The calls `CandidateEstimates` makes, repeated one by one to time each layer. */
  private def layerCalls(t: Trace, qid: String, q: CorrelationSketch, c: Cand): Unit = {
    val cs = sketches(c.id)
    val sj = t.span("core.join") { CorrelationSketch.join(q, cs) }
    joinSizes += sj.n
    t.span("stats.pearson") { Correlations.pearson(sj.xs, sj.ys) }
    t.span("stats.pm1") { Correlations.pm1Bootstrap(sj.xs, sj.ys, candidateSeed(qid, c.id)) }
    t.span("stats.hoeffding") { ConfidenceBounds.hoeffding(sj.xs, sj.ys, sj.cLow, sj.cHigh) }
    t.span("core.containment") { CorrelationSketch.containmentEstimate(q, cs) }
  }

  def check(): Checks.Report = {
    val rankerNames = Ranker.all.map(_.name)
    val scores = rankerNames.indices.map { ri =>
      rankerNames(ri) -> Checks.table1Scores(queries.indices.map { qi =>
        (queries(qi)._2.map(c => c.id -> absOrZero(c.truth)).toMap, rankings(qi)(ri))
      })
    }.toMap
    val bounds = for ((qid, cands) <- queries.toSeq; c <- cands.toSeq) yield {
      val sj = CorrelationSketch.join(sketches(qid), sketches(c.id))
      val h = ConfidenceBounds.hoeffding(sj.xs, sj.ys, sj.cLow, sj.cHigh)
      (h.rhoLow, h.rhoHigh, c.truth)
    }
    val notes = rankerNames.map(r => s"Table 1 $r: " +
      Checks.table1Metrics.zip(scores(r)).map { case (m, v) => f"$m=$v%.3f" }.mkString(" "))
    val problems = Checks.table1Shape(scores, CorrelationRankers) ++ Checks.hoeffdingCoverage(bounds)
    Checks.Report(problems, 0, notes)
  }

  def digest(): Long = (ests.toSeq, rankings.toSeq).hashCode.toLong

  def named(lat: Latencies, roundNs: Array[Double]): Seq[(String, Double, String)] = Seq(
    ("rank_cands_per_s", workPerRound / (Stats.median(roundNs) / 1e9), "candidates/s"))

  def layers(t: Trace): Seq[(String, Double)] = Seq(
    "core.truncated_sketches" -> sketches.values.count(!_.exact).toDouble,
    "core.join_n" -> Stats.median(joinSizes.toArray),
  )

  def profile(): Seq[(String, String)] = {
    val n = (for ((qid, cands) <- queries.toSeq; c <- cands.toSeq)
      yield CorrelationSketch.join(sketches(qid), sketches(c.id)).n.toDouble)
    Seq(
      "tables / queries with candidates / candidates" -> s"${tables.size} / ${queries.length} / ${n.size}",
      "rows" -> tables.map(_.rows).sum.toString,
      "share of columns with more distinct keys than k" ->
        f"${tables.count(t => Inputs.distinctKeys(t) > K).toDouble / tables.size}%.3f",
      "share of rows with a repeated key" ->
        f"${1 - tables.map(Inputs.distinctKeys).sum.toDouble / tables.map(_.rows).sum}%.3f",
      "share of exact sketches" -> f"${sketches.values.count(_.exact).toDouble / sketches.size}%.3f",
      "sketch-join sizes of the candidates" -> Inputs.spread(n),
      "share of candidate joins under 16 rows" -> f"${n.count(_ < 16).toDouble / n.size}%.3f",
    )
  }
}

object RankWorkload {
  val K = 256
  val MinOverlap = 3
  val CorrelationRankers = Seq("r_p", "r_p*se_z", "r_b*ci_b", "r_p*ci_h")

  /** Metric-name keys of the seven rankers, in `Ranker.all` order. */
  def key(r: Ranker): String = r match {
    case Ranker.Rp     => "rp"
    case Ranker.RpSez  => "rp_sez"
    case Ranker.RbCib  => "rb_cib"
    case Ranker.RpCih  => "rp_cih"
    case Ranker.Jc     => "jc"
    case Ranker.JcEst  => "jc_est"
    case Ranker.Random => "random"
  }
  val rankerKeys: Seq[String] = Ranker.all.map(key)

  // The seeds `RankingEval` gives the bootstrap and the random ranker.
  def candidateSeed(qid: String, cid: String): Long = 101L ^ (qid + cid).hashCode.toLong
  def querySeed(qid: String): Long = 7L ^ qid.hashCode.toLong

  def absOrZero(r: Double): Double = if (r.isNaN) 0.0 else math.abs(r)
}
